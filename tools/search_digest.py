"""Digests of every bench search's outcomes and fiducial: search_digest.py SRC

For each workload seed 1, 97, 2 and 3, runs search_detailed from SRC on each bench search (d, restarts) of
bench/workloads.py Search.dims, in order, at seed derived_seed(seed, d), feeds repr(outcomes) and then the
winner's fiducial.tobytes() of each into one sha256, and prints the seed and the first 16 hex digits of the digest.
Two checkouts search bit for bit alike exactly when they print the same lines.
"""
import hashlib, sys
from pathlib import Path

SEEDS = (1, 97, 2, 3)


def digests(src: str) -> dict:
    sys.path[:0] = [src, str(Path(__file__).resolve().parents[1] / "bench")]
    import sic_forge as sf
    from workloads import Search, derived_seed  # the bench's searches and seeds
    table = {}
    for seed in SEEDS:
        digest = hashlib.sha256()
        for d, restarts in Search.dims:
            sic, outcomes = sf.search_detailed(sf.SearchConfig(dim=d, restarts=restarts, seed=derived_seed(seed, d)))
            digest.update(repr(outcomes).encode())
            digest.update(sic.fiducial.tobytes())
        table[seed] = digest.hexdigest()[:16]
    return table


if __name__ == "__main__":
    for seed, digest in digests(sys.argv[1]).items():
        print(seed, digest)
