"""Benchmark of sic-forge: four workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root; the package is taken from ``src/``:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their times
are in reference seconds: measured seconds scaled by a probe computation
timed around them, so that they follow the program and not the speed of a
shared machine (see ``workloads.Workload``).  ``--trace 1``
runs the same passes twice, once plain and once with every traced sic_forge
function wrapped (see ``tracing.py``), and reports per-layer calls, self time
and counters.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result, machine facts included, is also written to
``.bench_out/``, and the traced run's spans to ``.bench_out/spans-<workload>.json``.

Thread variables such as OPENBLAS_NUM_THREADS are recorded, never set: the
benchmark measures the program as users run it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple

DEFAULT_SEED = 1  # the held-out seed, on which a claimed gain must also hold, is 97 (README.md)
SETUP_REPEATS = 3
IMPORT_PROBES = 5  # fresh-interpreter imports of sic_forge timed for setup_s
IMPORTTIME_REPEATS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# Reported on the result line by every workload; the other metrics of the
# plain run are printed above it.
END_TO_END = ("setup_s", "ops_per_s", "cpu_s_per_op")

# ``scale`` turns the measured wall and CPU seconds into reference seconds
# (1.0 for a workload without a probe; see workloads.Workload).
Record = namedtuple("Record", "pass_index position slot latency cpu scale problem digest")

# Times the import in a fresh interpreter, without interpreter start-up.
IMPORT_PROBE = "import time; t = time.perf_counter(); import sic_forge; print(time.perf_counter() - t)"


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_pass(workload, k: int, records: list, tracer=None) -> None:
    """Run pass ``k`` of the workload, appending one Record per operation."""
    position = [0]

    def timed(slot, run, check):
        index = position[0]
        position[0] += 1
        result, problem, digest = None, "", ""
        before = workload.probe() if workload.probe else 0.0
        cpu0 = time.process_time() + children_cpu_s()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = run()
            else:
                with tracer.op(f"{k}.{index}"):
                    result = run()
        except Exception as exc:  # a raising call is a counted failure, not the end of the run
            problem = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        cpu = time.process_time() + children_cpu_s() - cpu0
        scale = 2.0 * workload.probe_ref_s / (before + workload.probe()) if workload.probe else 1.0
        if not problem:
            try:
                problem, digest = check(result)
            except Exception as exc:  # a check that cannot read the output fails the operation
                problem = f"check raised {type(exc).__name__}: {exc}"
        records.append(Record(k, index, slot, latency, cpu, scale, f"{slot}: {problem}" if problem else "", digest))
        return result

    workload.run_pass(k, timed)


def operation_costs(records: list, probed: bool) -> tuple[list, list]:
    """Wall and CPU cost of each operation over its repeats in the run, in reference seconds.

    Every pass runs the same operations at the same positions on inputs of
    the same cost, so an operation is identified by its position.  With a
    probe, the cost is the median of the scaled repeats.  Without one it is
    the fastest repeat, unscaled: other processes only ever add time, and an
    operation of a few milliseconds finds an undisturbed moment in every run.
    Operations whose check failed are left out, unless every one failed.
    """
    pick = statistics.median if probed else min
    good = [r for r in records if not r.problem] or records
    repeats: dict = {}
    for r in good:
        repeats.setdefault(r.position, []).append((r.latency * r.scale, r.cpu * r.scale))
    positions = sorted(repeats)
    return ([pick(w for w, _ in repeats[p]) for p in positions],
            [pick(c for _, c in repeats[p]) for p in positions])


def ops_per_s(records: list, probed: bool) -> float:
    """Operations per reference second at the geometric mean of the operations' costs.

    The operations of a pass differ in cost by up to three orders of magnitude;
    the geometric mean weighs each one's relative speed equally, where a plain
    sum would follow the largest operation and its noise alone.
    """
    latency, _ = operation_costs(records, probed)
    return 1.0 / statistics.geometric_mean(latency)


def setup_seconds(workload) -> list:
    """Reference seconds of each of SETUP_REPEATS set-ups of the workload, scaled by numeric_probe."""
    from workloads import NUMERIC_PROBE_REF_S, numeric_probe

    samples = []
    for _ in range(SETUP_REPEATS):
        before = numeric_probe()
        start = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - start
        samples.append(elapsed * 2.0 * NUMERIC_PROBE_REF_S / (before + numeric_probe()))
    return samples


def import_seconds() -> list:
    """Reference seconds of ``import sic_forge`` in fresh interpreters, start-up excluded.

    Scaled by interpreter_probe, since the import runs in a child process.
    """
    from workloads import INTERPRETER_PROBE_REF_S, interpreter_probe, package_env

    env = package_env(ROOT)
    samples = []
    for _ in range(IMPORT_PROBES):
        before = interpreter_probe(env, ROOT)
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True)
        samples.append(float(proc.stdout) * 2.0 * INTERPRETER_PROBE_REF_S / (before + interpreter_probe(env, ROOT)))
    return samples


def plain_run(workload, seconds: float, setup_times: list) -> tuple[dict, dict, list]:
    records: list = []
    start = time.perf_counter()
    k = 0
    while True:
        run_pass(workload, k, records)
        k += 1
        elapsed = time.perf_counter() - start
        # Whole passes only, so every run has the same operation mix; stop
        # when one more pass of average length would overrun.
        if k >= workload.min_passes and elapsed * (k + 1) / k > seconds:
            break
    passes = k
    probed = workload.probe is not None
    latency, cpu = operation_costs(records, probed)
    imports = import_seconds()
    how = (f"geometric mean of {len(latency)} operations, each the "
           + ("median of its probe-scaled repeats" if probed else "fastest of its repeats") + f" in {passes} passes")
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setup_times), "s",
                    f"reference s; median of {len(imports)} imports + median of {len(setup_times)} set-ups"),
        "ops_per_s": (1.0 / statistics.geometric_mean(latency), "1/s", how),
        "cpu_s_per_op": (statistics.geometric_mean(cpu), "s", f"process and child CPU, BLAS threads included; {how}"),
        "op_p50_ms": (1000.0 * statistics.median(latency), "ms", f"median of {len(latency)} operations' costs"),
    }
    if len(latency) >= 100:  # at least ten samples beyond the 90th percentile
        p90 = statistics.quantiles(latency, n=10)[8]
        metrics["op_p90_ms"] = (1000.0 * p90, "ms", f"of {len(latency)} operations' costs")
    cpu_total = sum(r.cpu for r in records)
    failed = sum(1 for r in records if r.problem)
    metrics["fail_rate"] = (failed / len(records), "ratio", f"{failed}/{len(records)} operations")
    metrics.update(workload.extra_metrics(records, cpu_total))
    wall, _ = operation_costs([r._replace(scale=1.0) for r in records], probed)
    metrics["wall_ops_per_s"] = (1.0 / statistics.geometric_mean(wall), "1/s", "as ops_per_s, in wall seconds")
    return metrics, {"passes": passes, "elapsed_s": time.perf_counter() - start}, records


def traced_run(workload, seconds: float) -> tuple[dict, dict, list, object]:
    from tracing import TRACED_NAMES, Tracer, load_dump, self_times

    tracer = Tracer()
    plain: list = []
    traced: list = []
    start = time.perf_counter()
    k = 0
    while True:
        # Alternate which side goes first so drift in machine speed cancels.
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                workload.traced = True
            try:
                run_pass(workload, k, traced if on else plain, tracer if on else None)
            finally:
                if on:
                    tracer.uninstall()
                    workload.traced = False
        k += 1
        # As in the plain run: whole pairs of passes, stopping when one more
        # pair of average length would overrun.
        if (time.perf_counter() - start) * (k + 1) / k > seconds:
            break
    pairs = k
    for path in workload.child_spans():
        tracer.merge(*load_dump(path))

    # Tracing must not change a single output: a traced operation whose
    # digest differs from its untraced twin's fails.
    mismatches = 0
    for i, (a, b) in enumerate(zip(plain, traced)):
        if a.digest != b.digest and not b.problem:
            traced[i] = b._replace(problem=f"{b.slot}: traced output differs from untraced")
            mismatches += 1

    calls, own = self_times(tracer.names, tracer.spans)
    metrics: dict = {}
    for name in TRACED_NAMES:
        metrics[f"{name}.calls"] = (calls[name], "count", "")
        metrics[f"{name}.self_s"] = (own[name], "s", "")
    counters = tracer.counters
    for name in ("search.restarts", "search.restarts_certified", "search.iterations"):
        metrics[name] = (counters[name], "count", "")
    restarts = counters["search.restarts"]
    metrics["search.objective_calls_per_restart"] = (
        calls["search.objective"] / restarts if restarts else 0.0, "ratio",
        f"{calls['search.objective']} objective calls / {restarts} restarts")
    metrics["operator_space.projector_bytes_computed"] = (
        counters["operator_space.projector_bytes_computed"], "bytes", "computed from array sizes, 16 bytes per entry")
    metrics.update(import_breakdown())
    startup = workload.startup_s(plain)
    metrics["cli.startup_s"] = (startup, "s", "median over subcommands") if startup is not None else (
        0.0, "s", "cli workload only")
    probed = workload.probe is not None
    metrics["trace.overhead_frac"] = (ops_per_s(plain, probed) / ops_per_s(traced, probed) - 1.0, "ratio",
                                      f"untraced over traced ops_per_s, minus 1; {pairs} passes each")
    info = {"pairs": pairs, "spans": len(tracer.spans), "trace_mismatches": mismatches}
    return metrics, info, plain + traced, tracer


def parse_importtime(text: str) -> list:
    """(depth, module, self seconds, cumulative seconds) per line of ``python -X importtime``."""
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        head, cumulative, name = line.split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(head.split(":")[1]) / 1e6, int(cumulative) / 1e6))
    return entries


def _in_package(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def outermost_cumulative(entries: list, package: str) -> float:
    """Cumulative import time of a package, counting only entries not nested in another of its entries."""
    total = 0.0
    ancestors: list = []
    for depth, name, _, cumulative in reversed(entries):  # a parent line follows its children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if _in_package(name, package) and not any(_in_package(a, package) for _, a in ancestors):
            total += cumulative
        ancestors.append((depth, name))
    return total


def import_breakdown() -> dict:
    from workloads import package_env

    samples = {"import.numpy_s": [], "import.scipy_s": [], "import.sic_forge_self_s": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sic_forge"],
                              env=package_env(ROOT), cwd=ROOT, capture_output=True, text=True, check=True)
        entries = parse_importtime(proc.stderr)
        samples["import.numpy_s"].append(outermost_cumulative(entries, "numpy"))
        samples["import.scipy_s"].append(outermost_cumulative(entries, "scipy"))
        samples["import.sic_forge_self_s"].append(
            sum(own for _, name, own, _ in entries if _in_package(name, "sic_forge")))
    return {name: (statistics.median(v), "s", f"python -X importtime, median of {len(v)}")
            for name, v in samples.items()}


def machine_facts(load_average: float) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints instead of returning
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "SIC_FORGE_THREADS": os.environ.get("SIC_FORGE_THREADS"),
        "load_average_1m_at_start": load_average,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("search", "certify", "tomography", "cli"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_average = os.getloadavg()[0]
    if args.trace and os.environ.get("SIC_FORGE_THREADS", "1") != "1":
        # Spans take their parents from one call stack, so restarts run on a
        # thread pool would be given wrong parents and wrong self times.
        print("error: --trace 1 needs SIC_FORGE_THREADS unset or 1", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "sic_forge", "__init__.py")):
        print(f"error: no sic_forge package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import sic_forge

    if os.path.dirname(os.path.abspath(sic_forge.__file__)) != os.path.join(SRC, "sic_forge"):
        print(f"error: imported sic_forge from {sic_forge.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads

    machine = machine_facts(load_average)
    print("machine " + json.dumps(machine, sort_keys=True))
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    tracer = None
    try:
        setup_times = setup_seconds(workload)
        if args.trace:
            metrics, info, records, tracer = traced_run(workload, args.seconds)
        else:
            metrics, info, records = plain_run(workload, args.seconds, setup_times)
    finally:
        workload.close()

    failed = [r.problem for r in records if r.problem]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + json.dumps(info))
    for name, (value, unit, detail) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({detail})" if detail else ""))
    for problem in failed[:20]:
        print(f"FAILED {problem}")

    os.makedirs(OUT_DIR, exist_ok=True)
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine, "info": info, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": v, "unit": u, "detail": d} for name, (v, u, d) in metrics.items()},
        "operations": [[r.pass_index, r.position, r.slot, r.latency, r.cpu, r.scale] for r in records],
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as handle:
        json.dump(full, handle, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))

    # The traced run's metrics are exactly the per-layer set; the plain run
    # also prints workload-only metrics that stay out of the result line.
    reported = list(metrics) if args.trace else END_TO_END
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
