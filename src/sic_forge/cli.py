"""Command-line front-end tying the modules into reproducible runs.

Exit codes are a stable scripting contract: 0 for success/certified, 1 for an
honest negative result (e.g. an uncertified candidate, files still written),
2 for usage or input errors and for runs too large for memory.  All file
writes are atomic, and artifacts written by two runs with identical flags are
byte-identical; wall time is therefore reported on stdout only, never inside
written artifacts.

Each subcommand computes one report.  ``--json`` prints it as indented JSON;
text mode prints one ``key: value`` line per leaf, nested keys joined by
``.`` and each value written as its JSON text.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import files, geometry, mubs, operator_space, verify
from .search import SearchConfig, search_detailed
from .wh import _check_integer, check_dim, check_tolerance

__all__ = ["main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _validated(convert, check, *args):
    """An argparse type: the text through ``convert``, then the library validator ``check(value, *args)``.

    Text that ``convert`` refuses goes to ``check`` as is, so every bad value is refused in the validator's words.
    """

    def parse(text: str):
        with contextlib.suppress(ValueError):
            text = convert(text)
        try:
            return check(text, *args)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_dim_type = _validated(int, check_dim)
_tol_type = _validated(float, check_tolerance, "tol")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sic-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="search for a fiducial vector")
    p_search.add_argument("--dim", type=_dim_type, required=True)
    # --restarts, --seed and --max-iters carry the bounds search_detailed checks
    p_search.add_argument("--restarts", type=_validated(int, _check_integer, "restarts", 1), required=True)
    p_search.add_argument("--seed", type=_validated(int, _check_integer, "seed", 0, 2**64), required=True)
    p_search.add_argument("--tol", type=_tol_type, default=1e-9, help="residual certification tolerance")
    p_search.add_argument("--max-iters", type=_validated(int, _check_integer, "max_iters", 1, 2**63), default=4000)
    p_search.add_argument("--out", default=".", help="output directory for fiducial and report files")
    p_search.add_argument("--json", action="store_true", help="print the run report as JSON")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="certify a fiducial file and report operator-space diagnostics")
    p_verify.add_argument("--fiducial", required=True)
    p_verify.add_argument("--tol", type=_tol_type, default=1e-10)
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_convert = sub.add_parser("convert", help="convert between density matrices and SIC probabilities")
    p_convert.add_argument("--fiducial", required=True)
    which = p_convert.add_mutually_exclusive_group(required=True)
    which.add_argument("--rho", help="density-matrix file to convert to probabilities")
    which.add_argument("--probs", help="probability file to convert to a density matrix")
    p_convert.add_argument("--out", default=".", help="output directory")
    p_convert.add_argument("--json", action="store_true")
    p_convert.set_defaults(func=cmd_convert)

    p_mubs = sub.add_parser("mubs", help="build prime-dimension MUBs and profile a state against them")
    p_mubs.add_argument("--dim", type=_dim_type, required=True)
    p_mubs.add_argument("--state", help="state-vector file to profile")
    p_mubs.add_argument("--tol", type=_tol_type, default=1e-8)
    p_mubs.add_argument("--json", action="store_true")
    p_mubs.set_defaults(func=cmd_mubs)

    p_kt = sub.add_parser("kt", help="orthonormality-defect lower bound, and the value on a fiducial's orbit")
    p_kt.add_argument("--dim", type=_dim_type, required=True)
    p_kt.add_argument("--t", type=_validated(float, operator_space._check_order), required=True)
    p_kt.add_argument("--fiducial")
    p_kt.add_argument("--json", action="store_true")
    p_kt.set_defaults(func=cmd_kt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        payload, code = args.func(args)
        print(json.dumps(payload, indent=2, allow_nan=False) if args.json else "\n".join(_text_lines(payload)))
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    return code


def _text_lines(payload: dict, prefix: str = ""):
    """One ``key: <JSON value>`` line per leaf of the report; nested keys are joined by ``.``."""
    for key, value in payload.items():
        if isinstance(value, dict):
            yield from _text_lines(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}: {json.dumps(value, allow_nan=False)}"


def cmd_search(args) -> tuple[dict, int]:
    accept_tol = args.tol * args.tol
    if not 0.0 < accept_tol < math.inf:
        raise ValueError(f"--tol {args.tol:g}: its square, the objective tolerance, leaves the float range")
    config = SearchConfig(
        dim=args.dim,
        restarts=args.restarts,
        seed=args.seed,
        max_iters=args.max_iters,
        accept_tol=accept_tol,
    )
    started = time.perf_counter()
    sic, outcomes = search_detailed(config)
    wall_ms = int(round((time.perf_counter() - started) * 1000.0))

    residuals = {
        "gram": sic.gram_residual,
        "quartic": sic.quartic_residual,
        "objective": sic.objective_value,
    }
    os.makedirs(args.out, exist_ok=True)
    fiducial_path = os.path.join(args.out, f"fiducial_d{args.dim}_s{args.seed}.json")
    report_path = os.path.join(args.out, f"report_d{args.dim}_s{args.seed}.json")

    files.write_json_atomic(
        fiducial_path,
        files.fiducial_payload(sic.fiducial, sic.gram_residual, sic.quartic_residual),
    )
    files.write_json_atomic(
        report_path,
        files._artifact(
            "run_report",
            command="search",
            dim=args.dim,
            seed=args.seed,
            tol=args.tol,
            residuals=residuals,
            certified=sic.certified,
            artifact_paths=[fiducial_path],
            restarts=[
                {"objective" if k == "objective_value" else k: v for k, v in dataclasses.asdict(o).items()}
                for o in outcomes
            ],
        ),
    )
    payload = {
        "command": "search",
        "dim": args.dim,
        "residuals": residuals,
        "wall_time_ms": wall_ms,
        "artifact_paths": [fiducial_path, report_path],
        "seed": args.seed,
        "certified": sic.certified,
    }
    return payload, EXIT_OK if sic.certified else EXIT_NEGATIVE


def cmd_verify(args) -> tuple[dict, int]:
    sic = verify.build_sic_set(files.load_fiducial(args.fiducial), tol=args.tol)
    k1, k2, phi, cert = sic.kt(1.0), sic.kt(2.0), sic.frame_potential, sic.quasi_onb()
    identity_gap = phi - (k2.value + sic.d**2)
    payload = {
        "command": "verify",
        "dim": sic.d,
        "residuals": {"gram": sic.gram_residual, "quartic": sic.quartic_residual},
        "k1": {"value": k1.value, "lower_bound": k1.lower_bound, "gap": k1.gap},
        "k2": {"value": k2.value, "lower_bound": k2.lower_bound, "gap": k2.gap},
        "frame_potential": phi,
        "frame_potential_identity_gap": identity_gap,
        "quasi_onb": {
            "passed": cert.passed,
            "projector_deviation": cert.projector_deviation,
            "trace_deviation": cert.trace_deviation,
            "overlap_deviation": cert.overlap_deviation,
            "completeness_deviation": cert.completeness_deviation,
        },
        "certified": sic.certified,
        "tol": args.tol,
    }
    return payload, EXIT_OK if sic.certified else EXIT_NEGATIVE


def _purity_block(p: np.ndarray, sic: verify.SicSet) -> dict:
    """Both purity residuals with their targets and the boolean verdict, at every d, from the SIC vectors."""
    quadratic, cubic = geometry.purity_quadratic_residual(p), geometry.purity_cubic_residual(p, sic)
    return {
        "quadratic_residual": quadratic,
        "quadratic_target": geometry.purity_quadratic_target(sic.d),
        "cubic_residual": cubic,
        "cubic_target": geometry.purity_cubic_target(sic.d),
        "pure": geometry._is_pure(quadratic, cubic),
    }


def cmd_convert(args) -> tuple[dict, int]:
    sic = verify.build_sic_set(files.load_fiducial(args.fiducial))
    if not sic.certified:
        raise ValueError(
            f"fiducial is not certified at {sic.tol} (gram={sic.gram_residual:.3e}, "
            f"quartic={sic.quartic_residual:.3e}); refusing to convert"
        )

    if args.rho is not None:
        p = geometry.sic_probabilities(files.load_density(args.rho), sic)
        name, direction, diagnostics = "probabilities.json", "rho->p", {}
    else:
        p = files.load_probabilities(args.probs)
        rec = geometry.reconstruct_density(p, sic)
        name, direction = "density.json", "p->rho"
        diagnostics = {"min_eigenvalue": rec.min_eigenvalue, "physical": rec.physical}
    report = {**diagnostics, "purity": _purity_block(p, sic)}  # the artifact's block, in the report as well
    if args.rho is not None:
        artifact = files.probabilities_payload(p, sic.d, extra=report)
    else:
        artifact = files.density_payload(rec.matrix, extra={"reconstruction": report})
    out_path = os.path.join(args.out, name)
    payload = {"command": "convert", "dim": sic.d, "direction": direction, **report, "artifact_paths": [out_path]}
    os.makedirs(args.out, exist_ok=True)
    files.write_json_atomic(out_path, artifact)
    return payload, EXIT_OK


def cmd_mubs(args) -> tuple[dict, int]:
    mubset = mubs.build_mubs(args.dim)
    residual = mubs.unbiasedness_residual(mubset)
    payload = {"command": "mubs", "dim": args.dim, "bases": args.dim + 1, "unbiasedness_residual": residual}

    if args.state is not None:
        profile = mubs.uncertainty_profile(files.load_state_vector(args.state), mubset)
        payload["per_basis"] = [float(x) for x in profile.per_basis]
        payload["target"] = mubs.minimum_uncertainty_target(args.dim)
        payload["minimum_uncertainty"] = mubs._is_minimum(profile.per_basis, args.dim, args.tol)
        payload["tol"] = args.tol
    return payload, EXIT_OK


def cmd_kt(args) -> tuple[dict, int]:
    bound = operator_space.kt_lower_bound(args.dim, args.t)
    payload = {"command": "kt", "dim": args.dim, "t": args.t, "lower_bound": bound}

    if args.fiducial is not None:
        psi = files.load_fiducial(args.fiducial)
        if psi.shape[0] != args.dim:
            raise ValueError(f"fiducial has dim {psi.shape[0]}, expected {args.dim}")
        report = verify.build_sic_set(psi).kt(args.t)
        payload["value"] = report.value
        payload["gap"] = report.gap
    return payload, EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
