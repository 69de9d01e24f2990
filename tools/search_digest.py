"""Digests and counts of every bench search's outcomes and fiducial: search_digest.py SRC

For each workload seed 1, 97, 2 and 3, runs search_detailed from SRC on each bench search (d, restarts) of
bench/workloads.py Search.dims, in order, at seed derived_seed(seed, d), feeds repr(outcomes) and then the
winner's fiducial.tobytes() of each into one sha256, and prints the seed and the first 16 hex digits of the digest.
Two checkouts search bit for bit alike exactly when they print the same digests.  Each line goes on with that
seed's counts, summed over its searches: certified=<n> restarts (objective within the config's accept_tol),
evaluations=<n> and <reason>=<n> per entry of STOP_REASONS.  A last line, total, sums those counts over the seeds.
"""
import hashlib, itertools, sys
from collections import Counter
from pathlib import Path

SEEDS = (1, 97, 2, 3)
ROOT = Path(__file__).resolve().parents[1]
_FRESH = itertools.count()  # one new package name per digests call


def digests(src: str) -> dict:
    """{seed: (digest, counts)}, counts a Counter of certified, evaluations and every stop reason.

    SRC's sic_forge is imported under a package name of its own (tools/layer_times.py's load), so a process that has
    already imported sic_forge from another checkout still digests SRC."""
    saved = sys.path[:]
    sys.path[:0] = [src, str(ROOT / "bench"), str(ROOT / "tools")]
    try:
        from layer_times import load, module
        from workloads import Search, derived_seed  # the bench's searches and seeds
    finally:
        sys.path[:] = saved
    sf = load(src, f"sic_forge_digest_{next(_FRESH)}")
    STOP_REASONS = module(sf, "search").STOP_REASONS
    table = {}
    for seed in SEEDS:
        digest, counts = hashlib.sha256(), Counter(dict.fromkeys(("certified", "evaluations", *STOP_REASONS), 0))
        for d, restarts in Search.dims:
            config = sf.SearchConfig(dim=d, restarts=restarts, seed=derived_seed(seed, d))
            sic, outcomes = sf.search_detailed(config)
            digest.update(repr(outcomes).encode())
            digest.update(sic.fiducial.tobytes())
            for o in outcomes:
                counts.update({"certified": o.objective_value <= config.accept_tol, "evaluations": o.evaluations,
                               o.stop_reason: 1})
        table[seed] = digest.hexdigest()[:16], counts
    return table


def report(table: dict) -> list:
    """The printed lines: one per seed of digests(src), then the total line."""
    fields = lambda counts: " ".join(f"{key}={n}" for key, n in counts.items())
    lines, total = [], Counter()
    for seed, (digest, counts) in table.items():
        lines.append(f"{seed} {digest} {fields(counts)}")
        total.update(counts)  # update, unlike +, keeps the reasons no restart took
    return lines + [f"total {fields(total)}"]


if __name__ == "__main__":
    print(*report(digests(sys.argv[1])), sep="\n")
