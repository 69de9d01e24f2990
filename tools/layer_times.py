"""Median us per layer, operator_space, search, tomography and cli, by checkout: layer_times.py LABEL=SRC [LABEL=SRC ...]

Each SRC runs in its own interpreter, in rounds of alternating order: each time is the median of the round medians,
and the key <name>.quartiles beside it holds the first and third quartiles of those round medians, its noise.
operator_space, on the bench candidates d = 8..24: a line tracer (about 1 us per line) times operator_set's inline
steps, which run in OperatorSet.__post_init__: copy, rank_one (the rank-one route: vectors, residual norms and pair
traces; 0 in checkouts without it), then on the general path hermiticity, psd and pair_traces (0 when the rank-one
route accepted the set, so 0 on every bench candidate: all five are rank-one); operator_set untraced, K_t, frame
potential and quasi-ONB run whole on the projector stack, and beside them the same three from the overlap grid
(grid_kt, grid_frame_potential, grid_quasi_onb): the SicSet members kt, frame_potential and quasi_onb, which read a
built set's stored grid; build_sic_set is timed whole.
search, per bench search (d, restarts) at workload seed 1: wall and CPU us of search_detailed (CPU of the whole
process, BLAS threads included), and one descent tick, _evaluate then _gradient on an (R, d) stack of start points,
for R = 1 and R = 16 restarts (with the phase_constants(d) record first in checkouts whose kernel takes it).
Deterministic counts per row, reported as they are: the restarts certified (RestartOutcome objective within
accept_tol), and beside it certified_record, 1 if the record search_detailed returns is certified, else 0; the
overlap evaluations of the Gauss-Newton tail (summed from the per-row evaluations _gauss_newton_tail returns second
from last: it returns (iterations, evaluations, stop reasons), and in older checkouts (points, iterations,
evaluations, stop reasons)) and of the descent (the RestartOutcome evaluations less those, start points included),
the descent's accepted steps (descent_iterations), so that descent_evals - restarts - descent_iters is its rejected
trials, and as stop.<reason> the restarts that stopped for each of the checkout's STOP_REASONS.
tomography, on the bench tomography candidates (d = 5, 7, 11): the geometry and mubs calls of one seeded pure state,
structure_coefficients, build_mubs and unbiasedness_residual, and at d = 31 and 307 unbiasedness_residual alone, each
repeated to about 10 ms per repeat and reported per call.
cli, on the bench cli workload's arguments at workload seed 1 (bench/data/fiducial_d{5,7}.json): in-process cli.main
per subcommand, with --json and in text mode (without it), stdout captured.
"""
import collections, contextlib, importlib, io, json, linecache, os, statistics, subprocess, sys, tempfile, time, timeit
from pathlib import Path

import numpy as np

ROOT, DIMS, ROUNDS, REPS, SEARCH_REPS, TICKS = Path(__file__).resolve().parents[1], (8, 12, 16, 20, 24), 5, 15, 5, 50
# prefixes of the search row counts, not seconds
COUNTS = ("certified", "descent_evals", "descent_iters", "refine_evals", "stop.")
INLINE = {"copy": ("np.array(",), "rank_one": ("_rank_one",),  # first match wins
          "psd": ("eigvalsh", "lows"), "hermiticity": ("herm", "adj"),
          "pair_traces": ("_pair_traces",)}


def traced(code, fn, *args) -> dict:
    """Seconds per INLINE step of the lines of code, on one call fn(*args)."""
    spent, state = dict.fromkeys([*INLINE, "other"], 0.0), [None, 0.0]
    def layer(line):
        text = linecache.getline(code.co_filename, line)
        return next((name for name, keys in INLINE.items() if any(k in text for k in keys)), "other")
    def local(frame, event, arg):
        if state[0] is not None:
            spent[state[0]] += time.perf_counter() - state[1]
        state[:] = [layer(frame.f_lineno) if event == "line" else None, time.perf_counter()]
        return local
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    fn(*args)
    sys.settrace(None)
    return spent


def layer_seconds(sf, d: int) -> dict:
    psi = sf.files.load_fiducial(ROOT / "bench" / "data" / f"fiducial_d{d}.json")
    sic = sf.build_sic_set(psi)
    opset = sf.operator_set(sic.projectors)
    calls = {"operator_set": (sf.operator_set, sic.projectors), "kt": (sf.kt_measure, opset, 2.0),
             "frame_potential": (sf.frame_potential, sic.vectors), "quasi_onb": (sf.quasi_onb_certify, opset, 1e-10),
             "build_sic_set": (sf.build_sic_set, psi), "grid_kt": (sf.SicSet.kt, sic, 2.0),
             "grid_frame_potential": (lambda s: s.frame_potential, sic), "grid_quasi_onb": (sf.SicSet.quasi_onb, sic)}
    runs = [{**traced(sf.OperatorSet.__post_init__.__code__, sf.operator_set, sic.projectors),
             **{k: timeit.timeit(lambda: c[0](*c[1:]), number=1) for k, c in calls.items()}} for _ in range(REPS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def search_seconds(sf, d: int, restarts: int, seed: int) -> dict:
    search = importlib.import_module("sic_forge.search")  # the package attribute `search` is the function
    config, runs = sf.SearchConfig(dim=d, restarts=restarts, seed=seed), []
    for _ in range(SEARCH_REPS):
        wall, cpu = time.perf_counter(), time.process_time()
        sf.search_detailed(config)
        runs.append({"search_wall": time.perf_counter() - wall, "search_cpu": time.process_time() - cpu})
    row = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    # the tail's evaluations, per row of the lockstep _gauss_newton_tail
    refine, refine_evals = search._gauss_newton_tail, []
    def counting(*args):
        result = refine(*args)
        refine_evals.append(int(np.sum(result[-2])))
        return result
    search._gauss_newton_tail = counting
    try:
        record, outcomes = sf.search_detailed(config)
    finally:
        search._gauss_newton_tail = refine
    row["certified"] = sum(o.objective_value <= config.accept_tol for o in outcomes)
    row["certified_record"] = int(record.certified)
    row["refine_evals"] = sum(refine_evals)
    row["descent_evals"] = sum(o.evaluations for o in outcomes) - row["refine_evals"]
    row["descent_iters"] = sum(o.descent_iterations for o in outcomes)
    stops = collections.Counter(o.stop_reason for o in outcomes)
    row.update({f"stop.{reason}": stops[reason] for reason in search.STOP_REASONS})
    group = (sf.phase_constants(d),) if search._evaluate.__code__.co_argcount == 2 else ()  # older kernels take none
    for rows in (1, 16):
        stack = search._random_starts(d, seed, range(rows))
        tick = lambda: search._gradient(*group, search._evaluate(*group, stack))
        row[f"tick_r{rows}"] = statistics.median(timeit.repeat(tick, number=TICKS, repeat=REPS)) / TICKS
    return row


def per_call(fn, *args) -> float:
    number = max(1, int(0.01 / timeit.timeit(lambda: fn(*args), number=1)))
    return statistics.median(timeit.repeat(lambda: fn(*args), number=number, repeat=REPS)) / number


def tomography_seconds(sf, psi) -> dict:
    sic = sf.build_sic_set(psi)
    d, tensor, mubset = sic.d, sf.structure_coefficients(sic), sf.build_mubs(sic.d)
    rng = np.random.default_rng([1, d])
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    z /= np.linalg.norm(z)
    rho = np.outer(z, z.conj())
    p = sf.sic_probabilities(rho, sic)
    calls = {"sic_probabilities": (sf.sic_probabilities, rho, sic),
             "reconstruct_density": (sf.reconstruct_density, p, sic),
             "structure_coefficients": (sf.structure_coefficients, sic),
             "purity_quadratic_residual": (sf.purity_quadratic_residual, p),
             "purity_cubic_residual": (sf.purity_cubic_residual, p, tensor),
             "uncertainty_profile": (sf.uncertainty_profile, z, mubset),
             "build_mubs": (sf.build_mubs, d), "unbiasedness_residual": (sf.unbiasedness_residual, mubset)}
    return {k: per_call(*c) for k, c in calls.items()}


def cli_seconds(src: str) -> dict:
    from workloads import Cli  # the bench's cli arguments and the input files its set-up writes
    main = importlib.import_module("sic_forge.cli").main
    def timed(argv) -> float:
        with contextlib.redirect_stdout(io.StringIO()):
            return timeit.timeit(lambda: main(argv), number=1)
    with tempfile.TemporaryDirectory() as work:
        bench = Cli(1, str(Path(src).resolve().parent))
        bench.work = work
        bench.setup()
        table = {}
        for _, argv, _, _ in bench.commands()[1:]:  # the first is the bare import
            name = argv[0] + ("_rho" if "--rho" in argv else "_probs" if "--probs" in argv else "")
            modes = {"json": argv, "text": [a for a in argv if a != "--json"]}
            runs = [{mode: timed(args) for mode, args in modes.items()} for _ in range(REPS)]
            table[name] = {mode: statistics.median(r[mode] for r in runs) for mode in modes}
    return table


def child(src: str) -> dict:
    sys.path[:0] = [src, str(ROOT / "bench")]
    sf = __import__("sic_forge.files")
    from workloads import Search, Tomography, derived_seed, load_candidate  # the bench's dimensions, seeds, candidates
    return {"operator_space": {d: layer_seconds(sf, d) for d in DIMS},
            "search": {f"d={d} R={r}": search_seconds(sf, d, r, derived_seed(1, d)) for d, r in Search.dims},
            "tomography": {**{d: tomography_seconds(sf, load_candidate(d, True)) for d, _ in Tomography.states_per_dim},
                           **{d: {"unbiasedness_residual": per_call(sf.unbiasedness_residual, sf.build_mubs(d))}
                              for d in (31, 307)}},
            "cli": cli_seconds(src)}


def main(checkouts: list) -> dict:
    sys.path.insert(0, str(ROOT / "bench"))
    from run import machine_facts  # the benchmark's own facts: CPUs, numpy, BLAS, thread variables, load
    cpu = next(l.split(":")[1].strip() for l in Path("/proc/cpuinfo").read_text().splitlines() if "model name" in l)
    machine = {**machine_facts(os.getloadavg()[0]), "cpu": cpu}
    rounds = collections.defaultdict(list)
    for r in range(ROUNDS):
        for label, src in checkouts if r % 2 == 0 else checkouts[::-1]:
            rounds[label].append(json.loads(subprocess.check_output([sys.executable, __file__, src], text=True)))
    def summary(runs, table, key, k) -> dict:
        values = [run[table][key][k] for run in runs]
        if k.startswith(COUNTS):  # deterministic: every round reads the same
            return {k: statistics.median(values)}
        q1, median, q3 = (round(1e6 * q, 1) for q in statistics.quantiles(values, n=4, method="inclusive"))
        return {k: median, f"{k}.quartiles": [q1, q3]}
    layers = {label: {table: {key: {n: v for k in runs[0][table][key] for n, v in summary(runs, table, key, k).items()}
                              for key in runs[0][table]} for table in runs[0]} for label, runs in rounds.items()}
    return {"unit": f"us; the search counts {', '.join(COUNTS)}<reason> as they are",
            "statistic": f"median and quartiles of {ROUNDS} rounds of the median of {REPS} repeats ({SEARCH_REPS} for "
            f"search_detailed; a tick repeat is the mean of {TICKS} ticks, a tomography repeat about 10 ms of calls)",
            "machine": machine, "command": "python tools/layer_times.py " + " ".join(f"{l}=SRC" for l, _ in checkouts),
            "layers": layers}


if __name__ == "__main__":
    if "=" not in sys.argv[1]:  # a child: time the checkout whose src is given
        print(json.dumps(child(sys.argv[1])))
    else:
        print(json.dumps(main([tuple(a.split("=", 1)) for a in sys.argv[1:]]), indent=1))
