"""The four benchmark workloads: search, certify, tomography and cli.

Each workload is closed loop: one client, one call at a time.  A workload
turns the workload seed into its inputs, then runs passes.  Every pass runs
the same operations in the same order.  Certify and tomography draw fresh
displacements, phases and states of the same cost from ``(seed, pass)``;
search and cli repeat identical calls.  Every operation's output is checked; a failed check or an exception
is counted, never dropped.

``run_pass(k, timed)`` calls ``timed(slot, run, check)`` once per operation.
``run`` is the measured call into sic_forge; ``check(result)`` returns
``(problem, digest)`` where ``problem`` is an empty string when the output is
correct, and ``digest`` is a string of the outputs that must not change when
tracing is on.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import sic_forge as sf
from sic_forge import files

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
VERIFY_TOL = 1e-10


def package_env(root: str) -> dict:
    """This environment with the checkout's ``src`` first on PYTHONPATH; thread variables are left as found."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def numeric_probe() -> float:
    """Seconds of a fixed computation outside sic_forge: Python and small-array numpy, like search's inner loop."""
    start = time.perf_counter()
    z = np.linspace(0.0, 1.0, 32) + 1j * np.linspace(1.0, 0.0, 32)
    total = 0.0
    for _ in range(100):
        z = z / np.linalg.norm(z)
        total += float(np.vdot(z, z).real) + sum(j * j for j in range(20))
    return time.perf_counter() - start


# numeric_probe on the 2-vCPU machine the benchmark was built on, at its full speed.
NUMERIC_PROBE_REF_S = 0.5e-3


def interpreter_probe(env: dict, cwd: str) -> float:
    """Seconds for a bare interpreter to start and exit, for work done in child processes.

    The children may run on the other vCPU, which an in-process probe would not see.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
    return time.perf_counter() - start


# interpreter_probe on the same machine at its full speed.
INTERPRETER_PROBE_REF_S = 0.036


def derived_seed(*words: int) -> int:
    """A 64-bit seed for sic_forge from the workload seed and loop indices."""
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1, np.uint64)[0])


def load_candidate(d: int, certified: bool) -> np.ndarray:
    """Read a stored fiducial and confirm its status from recomputed residuals."""
    psi = files.load_fiducial(os.path.join(DATA_DIR, f"fiducial_d{d}.json"))
    worst = max(sf.gram_residual(psi), sf.quartic_residual(psi))
    if (worst <= VERIFY_TOL) != certified:
        raise ValueError(f"stored d={d} candidate has residual {worst:.3e}; expected certified={certified}")
    return psi


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class Workload:
    """Defaults shared by the workloads.

    The shared machine this was built on runs everything up to 1.8 times
    slower for stretches of a fraction of a second to minutes, sometimes for
    a whole run.  A workload with a ``probe`` times it just before and just
    after each operation and scales the operation's wall and CPU seconds by
    ``probe_ref_s`` over the mean of the two: the probe slows with the
    machine, so the scaled time (in reference seconds, about seconds at full
    speed) follows the program.  Workloads of operations of a few
    milliseconds set ``probe = None``; they find an undisturbed moment in
    every run, so the fastest repeat serves, unscaled.
    """

    name = ""
    min_passes = 1
    probe = staticmethod(numeric_probe)
    probe_ref_s = NUMERIC_PROBE_REF_S

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.root = root
        self.traced = False  # the traced run sets this around traced passes

    def extra_metrics(self, records, cpu_s) -> dict:
        """Metrics that apply to this workload only: name -> (value, unit, detail)."""
        return {}

    def child_spans(self) -> list:
        """Span files written by traced child processes."""
        return []

    def startup_s(self, records) -> float | None:
        """Start-up cost per call, for workloads that start processes."""
        return None

    def close(self) -> None:
        pass


class Search(Workload):
    """search_detailed once per d = 2..16 with 16 restarts, and d = 20, 24 with 4."""

    name = "search"
    dims = tuple((d, 16) for d in range(2, 17)) + ((20, 4), (24, 4))

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.tally = []  # (certified restarts, restarts) per checked call

    def setup(self) -> None:
        sf.search_detailed(sf.SearchConfig(dim=4, restarts=2, seed=derived_seed(self.seed, 0)))

    def run_pass(self, k: int, timed) -> None:
        for d, restarts in self.dims:
            config = sf.SearchConfig(dim=d, restarts=restarts, seed=derived_seed(self.seed, d))
            timed(f"d={d}", lambda: sf.search_detailed(config), lambda result: self.check(config, result))

    def check(self, config, result) -> tuple[str, str]:
        candidate, outcomes = result
        tol = math.sqrt(config.accept_tol)
        quartic = sf.quartic_residual(candidate.fiducial)
        gram = sf.gram_residual(candidate.fiducial)
        certified = sum(o.objective_value <= config.accept_tol for o in outcomes)
        iterations = sum(o.iterations for o in outcomes)
        self.tally.append((certified, len(outcomes)))
        digest = f"{certified}/{len(outcomes)} {iterations} {_digest(candidate.fiducial)}"
        if len(outcomes) != config.restarts:
            return f"{len(outcomes)} outcomes for {config.restarts} restarts", digest
        if candidate.certified != (quartic <= tol):
            return f"certified={candidate.certified} but recomputed quartic residual {quartic:.3e}", digest
        if candidate.certified and abs(quartic - gram) > 1e-8:
            return f"quartic {quartic:.3e} and gram {gram:.3e} residuals disagree", digest
        return "", digest

    def extra_metrics(self, records, cpu_s) -> dict:
        certified = sum(c for c, _ in self.tally)
        restarts = sum(n for _, n in self.tally)
        return {
            "hit_rate": (certified / restarts, "ratio", f"{certified}/{restarts} restarts"),
            "certified_per_cpu_s": (certified / cpu_s, "1/s", f"{certified} certified in {cpu_s:.3f} CPU s"),
        }


class Certify(Workload):
    """What CLI verify and kt compute, once per stored candidate, after a seeded displacement and phase."""

    name = "certify"
    candidates = ((8, True), (12, True), (16, True), (20, False), (24, False))

    def setup(self) -> None:
        self.fiducials = {d: load_candidate(d, ok) for d, ok in self.candidates}
        self._op(self.fiducials[8], (1, 2), 0.5)

    @staticmethod
    def _op(psi, r, theta):
        moved = np.exp(1j * theta) * sf.displace_state(psi, r)
        sic = sf.build_sic_set(moved, tol=VERIFY_TOL)
        opset = sf.operator_set(sic.projectors)
        k1 = sf.kt_measure(opset, 1.0)
        k2 = sf.kt_measure(opset, 2.0)
        phi = sf.frame_potential(sic.vectors)
        cert = sf.quasi_onb_certify(opset, tol=VERIFY_TOL)
        return sic, k1, k2, phi, cert

    def run_pass(self, k: int, timed) -> None:
        for d, expected in self.candidates:
            rng = np.random.default_rng([self.seed, k, d])
            r = (int(rng.integers(d)), int(rng.integers(d)))
            theta = float(rng.uniform(0.0, 2.0 * np.pi))
            psi = self.fiducials[d]
            timed(f"d={d}", lambda: self._op(psi, r, theta), lambda result: self.check(d, expected, result))

    @staticmethod
    def check(d, expected, result) -> tuple[str, str]:
        sic, k1, k2, phi, cert = result
        digest = _digest(np.array([k1.value, k2.value, phi, sic.gram_residual, sic.quartic_residual]))
        if sic.certified != expected:
            return f"certified={sic.certified}, expected {expected}", digest
        if cert.passed != sic.certified:
            return f"quasi-ONB verdict {cert.passed} differs from certified={sic.certified}", digest
        gap = abs(phi - (k2.value + d * d))
        if gap > 1e-10:
            return f"frame-potential identity gap {gap:.3e}", digest
        if expected:
            e1 = abs(k1.value - (d**3 - d**2))
            e2 = abs(k2.value - d * d * (d - 1) / (d + 1))
            if max(e1, e2) > 1e-8:
                return f"K_1 off by {e1:.3e}, K_2 off by {e2:.3e}", digest
        return "", digest


class Tomography(Workload):
    """rho -> p -> rho, purity residuals and MUB profiles of seeded pure states against one SIC per d."""

    name = "tomography"
    probe = None  # states take 0.1-3 ms
    # Most states at d=11 so that the median state is one where the cubic
    # purity contraction (d^6 tensor) dominates.
    states_per_dim = ((5, 16), (7, 16), (11, 68))

    def setup(self) -> None:
        self.fiducials = {d: load_candidate(d, True) for d, _ in self.states_per_dim}
        prepared = self._prepare(self.fiducials[5])
        self._state_op(prepared, self._states(0, 5, 1)[0])

    @staticmethod
    def _prepare(psi):
        sic = sf.build_sic_set(psi)
        tensor = sf.structure_coefficients(sic)
        mubset = sf.build_mubs(sic.d)
        orbit = [sf.is_minimum_uncertainty(v, mubset) for v in sic.vectors]
        return sic, tensor, mubset, orbit

    @staticmethod
    def _state_op(prepared, z):
        sic, tensor, mubset, _ = prepared
        rho = np.outer(z, z.conj())
        p = sf.sic_probabilities(rho, sic)
        rec = sf.reconstruct_density(p, sic)
        quadratic = sf.purity_quadratic_residual(p)
        cubic = sf.purity_cubic_residual(p, tensor)
        profile = sf.uncertainty_profile(z, mubset)
        return rho, p, rec, quadratic, cubic, profile

    def _states(self, k: int, d: int, count: int) -> list:
        rng = np.random.default_rng([self.seed, k, d])
        z = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
        return list(z / np.linalg.norm(z, axis=1, keepdims=True))

    def run_pass(self, k: int, timed) -> None:
        for d, count in self.states_per_dim:
            psi = self.fiducials[d]
            prepared = timed(f"prepare d={d}", lambda: self._prepare(psi), self.check_prepare)
            for z in self._states(k, d, count):
                timed(f"state d={d}", lambda: self._state_op(prepared, z), self.check_state)

    @staticmethod
    def check_prepare(result) -> tuple[str, str]:
        sic, tensor, _, orbit = result
        digest = _digest(tensor.c)
        if not sic.certified:
            return "SIC not certified", digest
        if not all(orbit):
            return f"{orbit.count(False)} orbit vectors are not minimum-uncertainty", digest
        return "", digest

    @staticmethod
    def check_state(result) -> tuple[str, str]:
        rho, p, rec, quadratic, cubic, profile = result
        digest = _digest(p, rec.matrix, profile.per_basis)
        round_trip = float(np.max(np.abs(rec.matrix - rho)))
        if round_trip > 1e-10:
            return f"round trip off by {round_trip:.3e}", digest
        if max(quadratic, cubic) > 1e-9:
            return f"pure state has purity residuals {quadratic:.3e}, {cubic:.3e}", digest
        total = float(np.sum(profile.per_basis))
        if abs(total - 2.0) > 1e-10:
            return f"uncertainty profile sums to {total!r}", digest
        return "", digest


class Cli(Workload):
    """Cold `python -m sic_forge.cli` calls of every subcommand, plus a bare `import sic_forge`."""

    name = "cli"
    min_passes = 2  # the second pass checks that artifacts are byte-identical
    search_restarts = 4
    probe_ref_s = INTERPRETER_PROBE_REF_S  # start-up is the bulk of each call

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        self.work = os.path.join(root, ".bench_out", f"work-{os.getpid()}")
        self.env = package_env(root)
        self.reference: dict = {}

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        fid5 = load_candidate(5, True)
        load_candidate(7, True)
        rng = np.random.default_rng([self.seed, 5])
        z = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        rho = 0.7 * np.outer(z[0], z[0].conj()) + 0.3 * np.outer(z[1], z[1].conj())
        files.write_json_atomic(self._path("rho_d5.json"), files.density_payload(rho))
        p = sf.sic_probabilities(np.outer(z[1], z[1].conj()), sf.build_sic_set(fid5))
        files.write_json_atomic(self._path("probs_d5.json"), files.probabilities_payload(p, 5))
        self.search_seed = derived_seed(self.seed, 5)
        found = sf.search(sf.SearchConfig(dim=5, restarts=self.search_restarts, seed=self.search_seed))
        self.search_code = 0 if found.certified else 1
        subprocess.run([sys.executable, "-c", "import sic_forge"], env=self.env, check=True)

    def probe(self) -> float:
        return interpreter_probe(self.env, self.root)

    def _path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def commands(self) -> list:
        """(slot, sic-forge argv or None for the bare import, expected exit code, artifact paths)."""
        fid5 = os.path.join(DATA_DIR, "fiducial_d5.json")
        fid7 = os.path.join(DATA_DIR, "fiducial_d7.json")
        s = str(self.search_seed)
        return [
            ("import", None, 0, []),
            (
                "search",
                ["search", "--dim", "5", "--restarts", str(self.search_restarts), "--seed", s,
                 "--out", self._path("search"), "--json"],
                self.search_code,
                [self._path(f"search/fiducial_d5_s{s}.json"), self._path(f"search/report_d5_s{s}.json")],
            ),
            ("verify", ["verify", "--fiducial", fid7, "--json"], 0, []),
            ("kt", ["kt", "--dim", "7", "--t", "2", "--fiducial", fid7, "--json"], 0, []),
            (
                "convert",
                ["convert", "--fiducial", fid5, "--rho", self._path("rho_d5.json"),
                 "--out", self._path("to_p"), "--json"],
                0,
                [self._path("to_p/probabilities.json")],
            ),
            (
                "convert",
                ["convert", "--fiducial", fid5, "--probs", self._path("probs_d5.json"),
                 "--out", self._path("to_rho"), "--json"],
                0,
                [self._path("to_rho/density.json")],
            ),
            ("mubs", ["mubs", "--dim", "7", "--state", fid7, "--json"], 0, []),
        ]

    def run_pass(self, k: int, timed) -> None:
        for index, (slot, argv, code, artifacts) in enumerate(self.commands()):
            for path in artifacts:
                if os.path.exists(path):
                    os.unlink(path)
            cmd = self._command(argv, f"{k}.{index}")
            key = (index, slot)
            timed(slot, lambda: self._call(cmd), lambda result: self.check(key, argv, code, artifacts, result))

    def _command(self, argv, tag: str) -> list:
        if argv is None:
            return [sys.executable, "-c", "import sic_forge"]
        if not self.traced:
            return [sys.executable, "-m", "sic_forge.cli", *argv]
        return [sys.executable, self.child, self._path(f"spans-{tag}.json"), tag, *argv]

    def _call(self, cmd):
        return subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True)

    def check(self, key, argv, code, artifacts, proc) -> tuple[str, str]:
        if proc.returncode != code:
            tail = proc.stderr.decode(errors="replace").strip()[-300:]
            return f"exit code {proc.returncode}, expected {code}: {tail}", ""
        outputs = []
        try:
            if argv is not None:
                report = _strict_json(proc.stdout.decode())
                if argv[0] != "search":  # search prints its wall time; its files are the artifacts
                    outputs.append(proc.stdout)
                problem = self._check_report(argv[0], report)
                if problem:
                    return problem, ""
            for path in artifacts:
                with open(path, "rb") as handle:
                    data = handle.read()
                _strict_json(data.decode())
                outputs.append(data)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}", ""
        digest = hashlib.sha256(b"\0".join(outputs)).hexdigest()
        if self.reference.setdefault(key, digest) != digest:
            return "artifacts differ from an earlier call with the same flags", digest
        return "", digest

    @staticmethod
    def _check_report(command: str, report: dict) -> str:
        if command == "verify" and not (report["certified"] and report["quasi_onb"]["passed"]):
            return "verify did not certify a stored fiducial"
        if command == "kt" and abs(report["gap"]) > 1e-8:
            return f"K_2 gap {report['gap']:.3e} on a fiducial"
        if command == "mubs" and not report["minimum_uncertainty"]:
            return "fiducial not minimum-uncertainty"
        if command == "convert" and report["direction"] == "p->rho" and not report["physical"]:
            return "reconstruction of a state's probabilities is unphysical"
        return ""

    def extra_metrics(self, records, cpu_s) -> dict:
        by_slot: dict = {}
        for r in records:
            by_slot.setdefault(r.slot, []).append(r.latency)
        out = {f"cli.{slot}_s": (statistics.median(v), "s", f"median of {len(v)}")
               for slot, v in by_slot.items() if slot != "import"}
        imports = by_slot.get("import", [])
        if imports:
            out["import_s"] = (statistics.median(imports), "s", f"median of {len(imports)}")
        return out

    def startup_s(self, records) -> float:
        """Median over subcommands of the subprocess median minus the in-process cli.main median."""
        from sic_forge import cli

        in_process: dict = {}
        for slot, argv, _, _ in self.commands():
            if argv is None:
                continue
            for _ in range(3):
                with contextlib.redirect_stdout(io.StringIO()):
                    start = time.perf_counter()
                    cli.main(argv)
                    in_process.setdefault(slot, []).append(time.perf_counter() - start)
        subprocess_s: dict = {}
        for r in records:
            subprocess_s.setdefault(r.slot, []).append(r.latency)
        return statistics.median(
            statistics.median(subprocess_s[slot]) - statistics.median(t) for slot, t in in_process.items()
        )

    def child_spans(self) -> list:
        return sorted(
            os.path.join(self.work, name) for name in os.listdir(self.work) if name.startswith("spans-")
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Search, Certify, Tomography, Cli)}
