"""Median us per call, by checkout, of operator_space, search, tomography, cli: layer_times.py LABEL=SRC [LABEL=SRC ...]

Each SRC is any directory that holds sic_forge/.  All are imported into this one interpreter, each as its own
top-level package: the first as sic_forge (which bench/workloads.py imports), the others as sic_forge_1, ...  Each call
runs REPS repeats per checkout, a repeat being as many calls as fill about 10 ms (at least one), and the checkouts take
turns within each repeat in an order that alternates from one repeat to the next, so load that drifts and stalls that
last the whole process fall on every checkout alike.  <name> is the median of the repeats per call and
<name>.quartiles their first and third quartiles.  The search table runs first: once the larger BLAS calls of the
others have woken OpenBLAS's threads, the search's small ones stall now and then.
operator_space, on the bench candidates d = 8..24: operator_set and its rank-one route (_rank_one_pair_traces) on the
projector stack, K_t, frame potential and quasi-ONB on the stack, the same three from the overlap grid (grid_kt,
grid_frame_potential, grid_quasi_onb: the SicSet members on a built set), and build_sic_set.
search, per bench search (d, restarts) at workload seed 1: wall and CPU of search_detailed (CPU of the whole process,
BLAS threads included), and one descent tick, _evaluate then _gradient, on R = 1 and 16 start points.  Deterministic
counts, as they are: the restarts certified (objective within accept_tol), certified_record (1 if the returned record
is certified), the overlap evaluations of the Gauss-Newton tail (refine_evals) and of the descent (descent_evals,
start points included), the descent's accepted steps (descent_iters), and stop.<reason> per STOP_REASONS entry.
tomography, on the bench tomography candidates (d = 5, 7, 11): the geometry and mubs calls of one seeded pure state,
and unbiasedness_residual alone at d = 31 and 307.
cli, on the bench cli workload's arguments at workload seed 1, its input files written once by the bench's set-up in
a temporary directory: in-process cli.main per subcommand, with --json and in text mode, stdout captured.
"""
import collections, contextlib, importlib.util, io, json, os, statistics, sys, tempfile, time, timeit
from functools import partial
from pathlib import Path

import numpy as np

ROOT, DIMS, REPS = Path(__file__).resolve().parents[1], (8, 12, 16, 20, 24), 15
WALL, WALL_CPU = {"": time.perf_counter}, {"_wall": time.perf_counter, "_cpu": time.process_time}


def load(src, name: str):
    """The package sic_forge under src, imported as the top-level package name with its own module tree."""
    spec = importlib.util.spec_from_file_location(name, Path(src, "sic_forge", "__init__.py"))  # a package spec
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


def module(sf, name: str):
    return importlib.import_module(f"{sf.__name__}.{name}")  # the package attribute `search` is the function


def interleaved(calls: dict, clocks: dict = WALL) -> dict:
    """{label: {name: fn}} -> {label: {name + suffix: median us per call, name + suffix.quartiles: [q1, q3]}}.

    Every clock of clocks ({suffix: clock}) reads the same repeats."""
    labels, runs = list(calls), collections.defaultdict(list)
    for name in calls[labels[0]]:
        numbers = {label: max(1, int(0.01 / timeit.timeit(calls[label][name], number=1))) for label in labels}
        for rep in range(REPS):
            for label in labels[::-1] if rep % 2 else labels:
                fn, number, start = calls[label][name], numbers[label], [clock() for clock in clocks.values()]
                for _ in range(number):
                    fn()
                for (suffix, clock), begun in zip(clocks.items(), start):
                    runs[label, name + suffix].append((clock() - begun) / number)
    table = {label: {} for label in labels}
    for (label, name), values in runs.items():
        q1, median, q3 = (round(1e6 * q, 1) for q in statistics.quantiles(values, n=4, method="inclusive"))
        table[label].update({name: median, f"{name}.quartiles": [q1, q3]})
    return table


def operator_calls(sf, d: int) -> dict:
    psi = module(sf, "files").load_fiducial(ROOT / "bench" / "data" / f"fiducial_d{d}.json")
    sic, rank_one = sf.build_sic_set(psi), module(sf, "operator_space")._rank_one_pair_traces
    opset = sf.operator_set(sic.projectors)
    return {"rank_one": lambda: rank_one(sic.projectors), "operator_set": lambda: sf.operator_set(sic.projectors),
            "kt": lambda: sf.kt_measure(opset, 2.0), "frame_potential": lambda: sf.frame_potential(sic.vectors),
            "quasi_onb": lambda: sf.quasi_onb_certify(opset, 1e-10), "build_sic_set": lambda: sf.build_sic_set(psi),
            "grid_kt": lambda: sic.kt(2.0), "grid_frame_potential": lambda: sic.frame_potential,
            "grid_quasi_onb": sic.quasi_onb}


def search_calls(sf, d: int, restarts: int, seed: int) -> dict:
    return {"search": partial(sf.search_detailed, sf.SearchConfig(dim=d, restarts=restarts, seed=seed))}


def tick_calls(sf, d: int, seed: int) -> dict:
    search, group = module(sf, "search"), sf.phase_constants(d)
    stacks = {f"tick_r{rows}": search._random_starts(d, seed, range(rows)) for rows in (1, 16)}
    return {k: lambda s=stack: search._gradient(group, search._evaluate(group, s)) for k, stack in stacks.items()}


def search_counts(sf, d: int, restarts: int, seed: int) -> dict:
    search, config, refine_evals = module(sf, "search"), sf.SearchConfig(dim=d, restarts=restarts, seed=seed), []
    refine = search._gauss_newton_tail
    def counting(*args):  # it returns (iterations, evaluations, stop reasons) per row
        result = refine(*args)
        refine_evals.append(int(np.sum(result[1])))
        return result
    search._gauss_newton_tail = counting
    try:
        record, outcomes = sf.search_detailed(config)
    finally:
        search._gauss_newton_tail = refine
    stops = collections.Counter(o.stop_reason for o in outcomes)
    return {"certified": sum(o.objective_value <= config.accept_tol for o in outcomes),
            "certified_record": int(record.certified), "refine_evals": sum(refine_evals),
            "descent_evals": sum(o.evaluations for o in outcomes) - sum(refine_evals),
            "descent_iters": sum(o.descent_iterations for o in outcomes),
            **{f"stop.{reason}": stops[reason] for reason in search.STOP_REASONS}}


def tomography_calls(sf, psi) -> dict:
    sic = sf.build_sic_set(psi)
    d, tensor, mubset = sic.d, sf.structure_coefficients(sic), sf.build_mubs(sic.d)
    rng = np.random.default_rng([1, d])
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    p = sf.sic_probabilities(rho, sic)
    return {"sic_probabilities": lambda: sf.sic_probabilities(rho, sic),
            "reconstruct_density": lambda: sf.reconstruct_density(p, sic),
            "structure_coefficients": lambda: sf.structure_coefficients(sic),
            "purity_quadratic_residual": lambda: sf.purity_quadratic_residual(p),
            "purity_cubic_residual": lambda: sf.purity_cubic_residual(p, tensor),
            "uncertainty_profile": lambda: sf.uncertainty_profile(z, mubset),
            "build_mubs": lambda: sf.build_mubs(d), "unbiasedness_residual": lambda: sf.unbiasedness_residual(mubset)}


def cli_calls(sf, argv: list) -> dict:
    main = module(sf, "cli").main
    def quiet(args):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(args)
    return {"json": lambda: quiet(argv), "text": lambda: quiet([a for a in argv if a != "--json"])}


def main(checkouts: list) -> dict:
    packages = {label: load(src, f"sic_forge_{i}" if i else "sic_forge") for i, (label, src) in enumerate(checkouts)}
    sys.path.insert(0, str(ROOT / "bench"))
    from run import machine_facts  # the benchmark's own facts: CPUs, numpy, BLAS, thread variables, load
    from workloads import Cli, Search, Tomography, derived_seed, load_candidate  # the bench's inputs
    cpu = next(l.split(":")[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines() if "model name" in l)
    machine = {**machine_facts(os.getloadavg()[0]), "cpu": cpu}
    layers = {label: {t: collections.defaultdict(dict) for t in ("operator_space", "search", "tomography", "cli")}
              for label in packages}
    def timed(table, key, build, *args, clocks=WALL):
        for label, row in interleaved({l: build(sf, *args) for l, sf in packages.items()}, clocks).items():
            layers[label][table][key].update(row)
    for d, restarts in Search.dims:
        key, seed = f"d={d} R={restarts}", derived_seed(1, d)
        timed("search", key, search_calls, d, restarts, seed, clocks=WALL_CPU)
        for label, sf in packages.items():
            layers[label]["search"][key].update(search_counts(sf, d, restarts, seed))
        timed("search", key, tick_calls, d, seed)
    for d in DIMS:
        timed("operator_space", d, operator_calls, d)
    for d, _ in Tomography.states_per_dim:
        timed("tomography", d, tomography_calls, load_candidate(d, True))
    for d in (31, 307):
        timed("tomography", d, lambda sf: {"unbiasedness_residual": partial(sf.unbiasedness_residual,
                                                                            sf.build_mubs(d))})
    with tempfile.TemporaryDirectory() as work:
        bench = Cli(1, str(ROOT))
        bench.work = work
        bench.setup()
        for _, argv, _, _ in bench.commands()[1:]:  # the first is the bare import
            name = argv[0] + ("_rho" if "--rho" in argv else "_probs" if "--probs" in argv else "")
            timed("cli", name, cli_calls, argv)
    return {"unit": "us; the search counts (certified*, *_evals, descent_iters, stop.*) as they are", "statistic":
            f"median and quartiles of {REPS} repeats per checkout, the checkouts taking turns in one interpreter; a "
            "repeat is about 10 ms of calls, reported per call", "machine": machine,
            "command": "python tools/layer_times.py " + " ".join(f"{l}=SRC" for l, _ in checkouts), "layers": layers}


if __name__ == "__main__":
    print(json.dumps(main([tuple(a.split("=", 1)) for a in sys.argv[1:]]), indent=1))
