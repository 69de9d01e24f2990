"""Write the fixed fiducial inputs of the benchmark into bench/data/.

The certify, tomography and cli workloads start from stored vectors, so their
set-up time does not follow search speed.  Each vector is found with the
public ``search`` and ``polish`` and written in the repository's own fiducial
format.  Dimensions 20 and 24 keep the best candidate of a search that did
not certify: these are honest local minima, the inputs on which ``verify``
must say no.

Run from the repository root:

    PYTHONPATH=src python3 bench/make_fiducials.py
"""

from __future__ import annotations

import os

import sic_forge as sf
from sic_forge import files

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CERTIFIED_DIMS = (5, 7, 8, 11, 12, 16)
UNCERTIFIED_DIMS = (20, 24)
SEED = 7


def find(d: int, want_certified: bool) -> sf.SicCandidate:
    """Search seeds upward from SEED until the polished outcome has the wanted status."""
    restarts = 16 if want_certified else 4
    for seed in range(SEED, SEED + 50):
        found = sf.search(sf.SearchConfig(dim=d, restarts=restarts, seed=seed))
        polished = sf.polish(found.fiducial)
        if polished.certified == want_certified:
            return polished
    raise RuntimeError(f"no {'certified' if want_certified else 'uncertified'} candidate at d={d}")


def main() -> None:
    os.makedirs(DATA_DIR, exist_ok=True)
    for d, want in [(d, True) for d in CERTIFIED_DIMS] + [(d, False) for d in UNCERTIFIED_DIMS]:
        cand = find(d, want)
        path = os.path.join(DATA_DIR, f"fiducial_d{d}.json")
        files.write_json_atomic(path, files.fiducial_payload(cand.fiducial, cand.gram_residual, cand.quartic_residual))
        print(f"d={d} certified={cand.certified} quartic={cand.quartic_residual:.3e} -> {path}")


if __name__ == "__main__":
    main()
