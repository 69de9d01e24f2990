"""Command-line front-end tying the modules into reproducible runs.

Exit codes are a stable scripting contract: 0 for success/certified, 1 for an
honest negative result (e.g. an uncertified candidate, files still written),
2 for usage or input errors.  All file writes are atomic, and artifacts
written by two runs with identical flags are byte-identical; wall time is
therefore reported on stdout only, never inside written artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import files, geometry, mubs, operator_space, verify
from .search import SearchConfig, search_detailed
from .wh import PURITY_TOL, as_state_vector

__all__ = ["main"]

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


def _arg_type(convert, noun: str, ok, rule: str):
    """An argparse type: ``convert`` the text (else "invalid NOUN"), then require ``ok(value)`` (else ``rule``)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {noun} {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(rule.format(value))
        return value

    return parse


_dim_arg = _arg_type(int, "dimension", lambda v: v >= 2, "dimension must be >= 2, got {}")
_positive_int = _arg_type(int, "integer", lambda v: v >= 1, "value must be >= 1, got {}")
_seed_arg = _arg_type(int, "seed", lambda v: 0 <= v < 2**64, "seed must fit in 64 unsigned bits")
_positive_float = _arg_type(float, "number", lambda v: 0.0 < v < math.inf, "value must be positive and finite, got {}")


def _order_arg(text: str) -> float:
    try:
        return operator_space._check_order(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sic-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_search = sub.add_parser("search", help="search for a fiducial vector")
    p_search.add_argument("--dim", type=_dim_arg, required=True)
    p_search.add_argument("--restarts", type=_positive_int, required=True)
    p_search.add_argument("--seed", type=_seed_arg, required=True)
    p_search.add_argument("--tol", type=_positive_float, default=1e-9, help="residual certification tolerance")
    p_search.add_argument("--max-iters", type=_positive_int, default=4000)
    p_search.add_argument("--out", default=".", help="output directory for fiducial and report files")
    p_search.add_argument("--json", action="store_true", help="print the run report as JSON")
    p_search.set_defaults(func=cmd_search)

    p_verify = sub.add_parser("verify", help="certify a fiducial file and report operator-space diagnostics")
    p_verify.add_argument("--fiducial", required=True)
    p_verify.add_argument("--tol", type=_positive_float, default=1e-10)
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
    p_mubs.add_argument("--dim", type=_dim_arg, required=True)
    p_mubs.add_argument("--state", help="state-vector file to profile")
    p_mubs.add_argument("--tol", type=_positive_float, default=1e-8)
    p_mubs.add_argument("--json", action="store_true")
    p_mubs.set_defaults(func=cmd_mubs)

    p_kt = sub.add_parser("kt", help="orthonormality-defect lower bound, and the value on a fiducial's orbit")
    p_kt.add_argument("--dim", type=_dim_arg, required=True)
    p_kt.add_argument("--t", type=_order_arg, required=True)
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
        return args.func(args)
    except (files.FileFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def cmd_search(args) -> int:
    try:
        accept_tol = args.tol**2
    except OverflowError:
        accept_tol = math.inf
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
    candidate, outcomes = search_detailed(config)
    wall_ms = int(round((time.perf_counter() - started) * 1000.0))

    residuals = {
        "gram": candidate.gram_residual,
        "quartic": candidate.quartic_residual,
        "objective": candidate.objective_value,
    }
    os.makedirs(args.out, exist_ok=True)
    fiducial_path = os.path.join(args.out, f"fiducial_d{args.dim}_s{args.seed}.json")
    report_path = os.path.join(args.out, f"report_d{args.dim}_s{args.seed}.json")

    files.write_json_atomic(
        fiducial_path,
        files.fiducial_payload(candidate.fiducial, candidate.gram_residual, candidate.quartic_residual),
    )
    files.write_json_atomic(
        report_path,
        {
            "format_version": files.FORMAT_VERSION,
            "kind": "run_report",
            "command": "search",
            "dim": args.dim,
            "seed": args.seed,
            "tol": args.tol,
            "residuals": residuals,
            "certified": candidate.certified,
            "artifact_paths": [fiducial_path],
            "restarts": [
                {
                    "restart": o.restart,
                    "objective": o.objective_value,
                    "iterations": o.iterations,
                    "descent_iterations": o.descent_iterations,
                    "refine_iterations": o.refine_iterations,
                    "evaluations": o.evaluations,
                    "stop_reason": o.stop_reason,
                }
                for o in outcomes
            ],
        },
    )

    if args.json:
        summary = {
            "command": "search",
            "dim": args.dim,
            "residuals": residuals,
            "wall_time_ms": wall_ms,
            "artifact_paths": [fiducial_path, report_path],
            "seed": args.seed,
            "certified": candidate.certified,
        }
        print(json.dumps(summary, indent=2, allow_nan=False))
    else:
        print(f"dim: {args.dim}")
        print(f"seed: {args.seed}  restarts: {args.restarts}")
        print(f"gram_residual: {candidate.gram_residual:.6e}")
        print(f"quartic_residual: {candidate.quartic_residual:.6e}")
        print(f"objective: {candidate.objective_value:.6e}")
        print(f"certified: {'yes' if candidate.certified else 'no'} (tol {args.tol:.1e})")
        print(f"wall_time_ms: {wall_ms}")
        print(f"wrote: {fiducial_path}")
        print(f"wrote: {report_path}")
    return EXIT_OK if candidate.certified else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    psi = as_state_vector(files.load_fiducial(args.fiducial))
    sic = verify.build_sic_set(psi, tol=args.tol)
    opset = operator_space.operator_set(sic.projectors)
    k1 = operator_space.kt_measure(opset, 1.0)
    k2 = operator_space.kt_measure(opset, 2.0)
    phi = operator_space.frame_potential(sic.vectors)
    identity_gap = phi - (k2.value + sic.d**2)
    cert = operator_space.quasi_onb_certify(opset, tol=args.tol)

    if args.json:
        print(
            json.dumps(
                {
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
                },
                indent=2,
                allow_nan=False,
            )
        )
    else:
        print(f"dim: {sic.d}")
        print(f"gram_residual: {sic.gram_residual:.6e}")
        print(f"quartic_residual: {sic.quartic_residual:.6e}")
        print(f"K_1: {k1.value:.12g} (lower bound {k1.lower_bound:.12g}, gap {k1.gap:.3e})")
        print(f"K_2: {k2.value:.12g} (lower bound {k2.lower_bound:.12g}, gap {k2.gap:.3e})")
        print(f"frame_potential: {phi:.12g}")
        print(f"frame_potential_identity_gap: {identity_gap:.3e}")
        print(
            f"quasi_onb: {'PASS' if cert.passed else 'FAIL'} (tol {args.tol:.1e}; "
            f"projector {cert.projector_deviation:.3e}, trace {cert.trace_deviation:.3e}, "
            f"overlap {cert.overlap_deviation:.3e}, completeness {cert.completeness_deviation:.3e})"
        )
        print(f"certified: {'yes' if sic.certified else 'no'} (tol {args.tol:.1e})")
    return EXIT_OK if sic.certified else EXIT_NEGATIVE


def _purity_block(p: np.ndarray, sic: verify.SicSet) -> dict:
    """Both purity residuals and the verdict; above the structure-tensor cap the cubic test is skipped (None)."""
    quad = geometry.purity_quadratic_residual(p)
    cubic = pure = None
    if sic.d <= geometry.STRUCTURE_TENSOR_MAX_DIM:
        cubic = geometry.purity_cubic_residual(p, geometry.structure_coefficients(sic))
        pure = bool(quad <= PURITY_TOL and cubic <= PURITY_TOL)
    return {
        "quadratic_residual": quad,
        "quadratic_target": geometry.purity_quadratic_target(sic.d),
        "cubic_residual": cubic,
        "cubic_target": geometry.purity_cubic_target(sic.d),
        "pure": pure,
    }


def cmd_convert(args) -> int:
    psi = as_state_vector(files.load_fiducial(args.fiducial))
    sic = verify.build_sic_set(psi, tol=1e-10)
    if not sic.certified:
        raise ValueError(
            f"fiducial is not certified at 1e-10 (gram={sic.gram_residual:.3e}, "
            f"quartic={sic.quartic_residual:.3e}); refusing to convert"
        )
    os.makedirs(args.out, exist_ok=True)

    if args.rho is not None:
        rho = geometry.check_density_matrix(files.load_density(args.rho))
        p = geometry.sic_probabilities(rho, sic)
        purity = _purity_block(p, sic)
        out_path = os.path.join(args.out, "probabilities.json")
        files.write_json_atomic(out_path, files.probabilities_payload(p, sic.d, extra={"purity": purity}))
        summary = {"command": "convert", "dim": sic.d, "direction": "rho->p", "purity": purity, "artifact_paths": [out_path]}
    else:
        p = geometry.check_probability_vector(files.load_probabilities(args.probs), sic.d)
        rec = geometry.reconstruct_density(p, sic)
        purity = _purity_block(p, sic)
        out_path = os.path.join(args.out, "density.json")
        files.write_json_atomic(
            out_path,
            files.density_payload(
                rec.matrix,
                extra={
                    "reconstruction": {
                        "min_eigenvalue": rec.min_eigenvalue,
                        "physical": rec.physical,
                        "purity": purity,
                    }
                },
            ),
        )
        summary = {
            "command": "convert",
            "dim": sic.d,
            "direction": "p->rho",
            "min_eigenvalue": rec.min_eigenvalue,
            "physical": rec.physical,
            "purity": purity,
            "artifact_paths": [out_path],
        }

    if args.json:
        print(json.dumps(summary, indent=2, allow_nan=False))
    else:
        print(f"dim: {summary['dim']}")
        print(f"direction: {summary['direction']}")
        print(f"purity_quadratic_residual: {purity['quadratic_residual']:.6e}")
        if purity["cubic_residual"] is not None:
            print(f"purity_cubic_residual: {purity['cubic_residual']:.6e}")
        if "min_eigenvalue" in summary:
            print(f"min_eigenvalue: {summary['min_eigenvalue']:.6e}")
            print(f"physical: {'yes' if summary['physical'] else 'no'}")
        print(f"wrote: {out_path}")
    return EXIT_OK


def cmd_mubs(args) -> int:
    mubset = mubs.build_mubs(args.dim)
    residual = mubs.unbiasedness_residual(mubset)
    payload = {"command": "mubs", "dim": args.dim, "bases": args.dim + 1, "unbiasedness_residual": residual}

    if args.state is not None:
        psi = as_state_vector(files.load_state_vector(args.state))
        profile = mubs.uncertainty_profile(psi, mubset)
        verdict = mubs.is_minimum_uncertainty(psi, mubset, tol=args.tol)
        payload["per_basis"] = [float(x) for x in profile.per_basis]
        payload["target"] = mubs.minimum_uncertainty_target(args.dim)
        payload["minimum_uncertainty"] = verdict
        payload["tol"] = args.tol

    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"dim: {args.dim} ({args.dim + 1} bases)")
        print(f"unbiasedness_residual: {residual:.6e}")
        if args.state is not None:
            per = ", ".join(f"{x:.12g}" for x in payload["per_basis"])
            print(f"per_basis: [{per}]")
            print(f"target: {payload['target']:.12g}")
            print(f"minimum_uncertainty: {'yes' if payload['minimum_uncertainty'] else 'no'} (tol {args.tol:.1e})")
    return EXIT_OK


def cmd_kt(args) -> int:
    bound = operator_space.kt_lower_bound(args.dim, args.t)
    payload = {"command": "kt", "dim": args.dim, "t": args.t, "lower_bound": bound}

    if args.fiducial is not None:
        psi = as_state_vector(files.load_fiducial(args.fiducial))
        if psi.shape[0] != args.dim:
            raise ValueError(f"fiducial has dim {psi.shape[0]}, expected {args.dim}")
        sic = verify.build_sic_set(psi)
        report = operator_space.kt_measure(operator_space.operator_set(sic.projectors), args.t)
        payload["value"] = report.value
        payload["gap"] = report.gap

    if args.json:
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"dim: {args.dim}  t: {args.t:g}")
        print(f"lower_bound: {bound:.12g}")
        if "value" in payload:
            print(f"value: {payload['value']:.12g}")
            print(f"gap: {payload['gap']:.3e}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
