"""CLI contract: exit codes, file formats, determinism, atomicity."""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sic_forge import SearchConfig, build_sic_set, files, geometry, mubs, operator_space, search_detailed, verify
from sic_forge.cli import main
from conftest import BENCH_DATA, random_density, random_state


@pytest.fixture()
def hesse_file(tmp_path, fiducial_d3):
    path = tmp_path / "hesse.json"
    files.write_json_atomic(path, files.fiducial_payload(fiducial_d3, 0.0, 0.0))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_search_writes_certified_fiducial(tmp_path, capsys):
    out = str(tmp_path / "run")
    code, stdout, _ = run(capsys, ["search", "--dim", "2", "--restarts", "8", "--seed", "7", "--out", out])
    assert code == 0
    psi = files.load_fiducial(os.path.join(out, "fiducial_d2_s7.json"))
    assert build_sic_set(psi, tol=1e-9).certified
    report = files.load_json(os.path.join(out, "report_d2_s7.json"))
    assert report["certified"] is True
    assert len(report["restarts"]) == 8
    _, outcomes = search_detailed(SearchConfig(dim=2, restarts=8, seed=7, accept_tol=1e-9**2))
    for entry, outcome in zip(report["restarts"], outcomes):
        assert entry == {
            "restart": outcome.restart,
            "objective": outcome.objective_value,
            "iterations": outcome.iterations,
            "descent_iterations": outcome.descent_iterations,
            "refine_iterations": outcome.refine_iterations,
            "evaluations": outcome.evaluations,
            "stop_reason": outcome.stop_reason,
        }
    assert "wall_time_ms" not in report  # written artifacts carry no timing
    assert "wall_time_ms" in stdout


def test_search_runs_are_byte_identical(tmp_path, capsys):
    out = str(tmp_path / "same")
    argv = ["search", "--dim", "3", "--restarts", "4", "--seed", "11", "--out", out, "--json"]
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    fid_path = Path(out, "fiducial_d3_s11.json")
    rep_path = Path(out, "report_d3_s11.json")
    first_fid, first_rep = fid_path.read_bytes(), rep_path.read_bytes()
    # stdout prints the candidate's own residuals, the ones the report holds
    assert json.loads(stdout)["residuals"] == json.loads(first_rep)["residuals"]
    assert run(capsys, argv)[0] == 0
    assert fid_path.read_bytes() == first_fid
    assert rep_path.read_bytes() == first_rep


def test_search_and_verify_give_one_verdict(tmp_path, capsys):
    # the only restart ends with quartic 9.3e-6 within --tol but gram 2.6e-5 outside it: search and verify on the
    # file it wrote both say not certified, exit 1
    out = str(tmp_path / "short")
    argv = ["search", "--dim", "4", "--restarts", "1", "--seed", "0", "--max-iters", "8", "--tol", "1e-5"]
    code, stdout, _ = run(capsys, argv + ["--out", out, "--json"])
    searched = json.loads(stdout)
    assert (code, searched["certified"]) == (1, False)
    assert searched["residuals"]["quartic"] <= 1e-5 < searched["residuals"]["gram"]
    fiducial = os.path.join(out, "fiducial_d4_s0.json")
    assert files.load_json(os.path.join(out, "report_d4_s0.json"))["certified"] is False
    code, stdout, _ = run(capsys, ["verify", "--fiducial", fiducial, "--tol", "1e-5", "--json"])
    verified = json.loads(stdout)
    assert (code, verified["certified"]) == (1, False)
    assert verified["residuals"] == {k: searched["residuals"][k] for k in ("gram", "quartic")}


def flatten(payload: dict, prefix: str = "") -> list:
    """(dotted key, value) for every leaf of a JSON object, in order; lists are leaves."""
    leaves = []
    for key, value in payload.items():
        if isinstance(value, dict):
            leaves += flatten(value, f"{prefix}{key}.")
        else:
            leaves.append((f"{prefix}{key}", value))
    return leaves


TEXT_MODE_CASES = {
    "search": ["search", "--dim", "2", "--restarts", "2", "--seed", "3", "--out", "{out}"],
    "verify": ["verify", "--fiducial", "{fiducial}"],
    "kt": ["kt", "--dim", "3", "--t", "2.5"],
    "kt_fiducial": ["kt", "--dim", "3", "--t", "2", "--fiducial", "{fiducial}"],
    "convert_rho": ["convert", "--fiducial", "{fiducial}", "--rho", "{rho}", "--out", "{out}"],
    "convert_probs": ["convert", "--fiducial", "{fiducial}", "--probs", "{probs}", "--out", "{out}"],
    "mubs": ["mubs", "--dim", "5"],
    "mubs_state": ["mubs", "--dim", "3", "--state", "{fiducial}"],
}


@pytest.mark.parametrize("case", TEXT_MODE_CASES)
def test_text_mode_prints_the_json_payload_one_leaf_per_line(tmp_path, hesse_file, capsys, case):
    rho_path, p_path = tmp_path / "rho.json", tmp_path / "probs.json"
    files.write_json_atomic(rho_path, files.density_payload(random_density(np.random.default_rng(3), 3)))
    files.write_json_atomic(p_path, files.probabilities_payload([1.0 / 3.0] + [1.0 / 12.0] * 8, 3))
    paths = {"out": str(tmp_path / "out"), "fiducial": hesse_file, "rho": str(rho_path), "probs": str(p_path)}
    argv = [arg.format(**paths) for arg in TEXT_MODE_CASES[case]]
    json_code, json_out, _ = run(capsys, argv + ["--json"])
    text_code, text_out, _ = run(capsys, argv)
    assert text_code == json_code
    leaves = []
    for line in text_out.splitlines():
        key, sep, value = line.partition(": ")
        assert sep and key and " " not in key, line
        leaves.append((key, json.loads(value, parse_constant=lambda token: pytest.fail(f"non-JSON token {token}"))))
    expected = flatten(json.loads(json_out))
    assert [k for k, _ in leaves] == [k for k, _ in expected]
    # wall time differs between the two runs; every other value is the same JSON text
    assert [kv for kv in leaves if kv[0] != "wall_time_ms"] == [kv for kv in expected if kv[0] != "wall_time_ms"]


def test_verify_certifies_exact_fiducial(hesse_file, capsys):
    code, stdout, _ = run(capsys, ["verify", "--fiducial", hesse_file, "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["certified"] is True
    assert payload["frame_potential"] == pytest.approx(13.5, abs=1e-8)
    assert payload["k1"]["value"] == pytest.approx(18.0, abs=1e-8)
    assert payload["k2"]["value"] == pytest.approx(4.5, abs=1e-8)
    assert abs(payload["frame_potential_identity_gap"]) <= 1e-10
    assert payload["quasi_onb"]["passed"] is True


def test_verify_honest_negative_on_basis_state(tmp_path, capsys):
    path = tmp_path / "e0.json"
    files.write_json_atomic(path, files.fiducial_payload(np.array([1.0, 0.0, 0.0]), 1.0, 1.0))
    code, stdout, _ = run(capsys, ["verify", "--fiducial", str(path), "--json"])
    assert code == 1
    payload = json.loads(stdout)
    assert payload["residuals"]["gram"] == pytest.approx(0.75, abs=1e-12)


def test_verify_rejects_truncated_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 3, "compo')
    code, _, err = run(capsys, ["verify", "--fiducial", str(path)])
    assert code == 2
    assert "not valid JSON" in err


def test_verify_names_missing_field(tmp_path, capsys):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"format_version": 1, "dim": 3}))
    code, _, err = run(capsys, ["verify", "--fiducial", str(path)])
    assert code == 2
    assert "components" in err


def test_verify_rejects_non_unit_components(tmp_path, capsys):
    path = tmp_path / "unnorm.json"
    files.write_json_atomic(path, files.fiducial_payload(np.array([1.0, 1.0, 0.0]), 0.0, 0.0))
    code, _, err = run(capsys, ["verify", "--fiducial", str(path)])
    assert code == 2


def test_convert_maximally_mixed(tmp_path, hesse_file, capsys):
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    out = str(tmp_path / "conv")
    code, stdout, _ = run(
        capsys,
        ["convert", "--fiducial", hesse_file, "--rho", str(rho_path), "--out", out, "--json"],
    )
    assert code == 0
    payload = files.load_json(os.path.join(out, "probabilities.json"))
    np.testing.assert_allclose(payload["p"], 1.0 / 9.0, atol=1e-12)
    expected = (3 - 1) / (9 * 4)  # quadratic gap of the maximally mixed state
    assert payload["purity"]["quadratic_residual"] == pytest.approx(expected, abs=1e-12)
    assert payload["purity"]["pure"] is False


def test_convert_maximally_mixed_d2(tmp_path, fiducial_d2, capsys):
    fid_path = tmp_path / "fid2.json"
    files.write_json_atomic(fid_path, files.fiducial_payload(fiducial_d2, 0.0, 0.0))
    rho_path = tmp_path / "mixed2.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(2) / 2.0))
    out = str(tmp_path / "conv2")
    code, stdout, _ = run(
        capsys,
        ["convert", "--fiducial", str(fid_path), "--rho", str(rho_path), "--out", out, "--json"],
    )
    assert code == 0
    payload = files.load_json(os.path.join(out, "probabilities.json"))
    np.testing.assert_allclose(payload["p"], 0.25, atol=1e-12)
    assert payload["purity"]["quadratic_residual"] == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_convert_probabilities_to_density(tmp_path, hesse_file, capsys):
    p = [1.0 / 3.0] + [1.0 / 12.0] * 8  # image of a SIC element
    p_path = tmp_path / "probs.json"
    files.write_json_atomic(p_path, files.probabilities_payload(p, 3))
    out = str(tmp_path / "conv")
    code, stdout, _ = run(
        capsys,
        ["convert", "--fiducial", hesse_file, "--probs", str(p_path), "--out", out, "--json"],
    )
    assert code == 0
    rho = files.load_density(os.path.join(out, "density.json"))
    assert np.abs(rho @ rho - rho).max() <= 1e-10
    payload = files.load_json(os.path.join(out, "density.json"))
    assert payload["reconstruction"]["physical"] is True


def test_convert_flags_unphysical_probabilities(tmp_path, hesse_file, capsys):
    p = [1.0] + [0.0] * 8
    p_path = tmp_path / "spike.json"
    files.write_json_atomic(p_path, files.probabilities_payload(p, 3))
    out = str(tmp_path / "conv")
    code, stdout, _ = run(
        capsys,
        ["convert", "--fiducial", hesse_file, "--probs", str(p_path), "--out", out, "--json"],
    )
    assert code == 0
    payload = json.loads(stdout)
    assert payload["physical"] is False
    assert payload["min_eigenvalue"] < -0.1


def test_convert_requires_exactly_one_input(tmp_path, hesse_file, capsys):
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    code, _, _ = run(capsys, ["convert", "--fiducial", hesse_file])
    assert code == 2
    code, _, _ = run(
        capsys,
        ["convert", "--fiducial", hesse_file, "--rho", str(rho_path), "--probs", str(rho_path)],
    )
    assert code == 2


def test_convert_rejects_uncertified_fiducial(tmp_path, capsys):
    path = tmp_path / "e0.json"
    files.write_json_atomic(path, files.fiducial_payload(np.array([1.0, 0.0, 0.0]), 1.0, 1.0))
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    code, _, err = run(capsys, ["convert", "--fiducial", str(path), "--rho", str(rho_path)])
    assert code == 2
    # the tolerance is build_sic_set's default, and the message reports the one the check used
    assert "fiducial is not certified at 1e-10 (gram=" in err


def test_convert_validates_the_density_once(tmp_path, hesse_file, capsys, monkeypatch):
    calls = []
    check = geometry.check_density_matrix

    def counted(rho):
        calls.append(rho)
        return check(rho)

    monkeypatch.setattr(geometry, "check_density_matrix", counted)
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    code, _, _ = run(capsys, ["convert", "--fiducial", hesse_file, "--rho", str(rho_path), "--out", str(tmp_path / "conv")])
    assert code == 0 and len(calls) == 1


def test_convert_computes_each_purity_residual_once(tmp_path, hesse_file, capsys, monkeypatch):
    calls = []
    for name in ("purity_quadratic_residual", "purity_cubic_residual"):

        def counted(*args, _name=name, _original=getattr(geometry, name)):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(geometry, name, counted)
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    p_path = tmp_path / "probs.json"
    files.write_json_atomic(p_path, files.probabilities_payload([1.0 / 3.0] + [1.0 / 12.0] * 8, 3))
    for flag, path in (("--rho", rho_path), ("--probs", p_path)):
        calls.clear()
        code, _, _ = run(capsys, ["convert", "--fiducial", hesse_file, flag, str(path), "--out", str(tmp_path / "conv")])
        assert code == 0
        assert sorted(calls) == ["purity_cubic_residual", "purity_quadratic_residual"]


@pytest.mark.parametrize("as_json", [True, False])
def test_convert_tests_purity_above_the_structure_tensor_cap(tmp_path, capsys, as_json):
    fiducial = str(BENCH_DATA / "fiducial_d16.json")
    rng = np.random.default_rng(1600)
    z = random_state(rng, 16)
    for name, rho, pure in (("pure", np.outer(z, z.conj()), True), ("mixed", random_density(rng, 16), False)):
        rho_path = tmp_path / f"{name}.json"
        files.write_json_atomic(rho_path, files.density_payload(rho))
        out = tmp_path / name
        argv = ["convert", "--fiducial", fiducial, "--rho", str(rho_path), "--out", str(out)]
        code, stdout, _ = run(capsys, argv + ["--json"] if as_json else argv)
        assert code == 0
        purity = files.load_json(out / "probabilities.json")["purity"]
        assert isinstance(purity["cubic_residual"], float) and purity["pure"] is pure
        if pure:
            assert purity["cubic_residual"] <= 1e-9
        if as_json:
            assert json.loads(stdout)["purity"] == purity
        else:
            assert f"purity.cubic_residual: {json.dumps(purity['cubic_residual'])}" in stdout.splitlines()


def test_convert_builds_no_structure_tensor(tmp_path, hesse_file, capsys, monkeypatch):
    def refuse(sic):
        raise AssertionError("convert built the d^6 structure tensor")

    monkeypatch.setattr(geometry, "structure_coefficients", refuse)
    rho_path = tmp_path / "mixed.json"
    files.write_json_atomic(rho_path, files.density_payload(np.eye(3) / 3.0))
    p_path = tmp_path / "probs.json"
    files.write_json_atomic(p_path, files.probabilities_payload([1.0 / 3.0] + [1.0 / 12.0] * 8, 3))
    for flag, path in (("--rho", rho_path), ("--probs", p_path)):
        code, _, _ = run(capsys, ["convert", "--fiducial", hesse_file, flag, str(path), "--out", str(tmp_path / "conv")])
        assert code == 0


def test_mubs_prime_and_composite(capsys):
    code, stdout, _ = run(capsys, ["mubs", "--dim", "7", "--json"])
    assert code == 0
    assert json.loads(stdout)["unbiasedness_residual"] <= 1e-10
    code, _, err = run(capsys, ["mubs", "--dim", "6"])
    assert code == 2
    assert "prime dimension required" in err


def test_mubs_profiles_fiducial(hesse_file, capsys):
    code, stdout, _ = run(capsys, ["mubs", "--dim", "3", "--state", hesse_file, "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["minimum_uncertainty"] is True
    np.testing.assert_allclose(payload["per_basis"], 0.5, atol=1e-10)


@pytest.mark.parametrize("tol", ["1e-8", "1e-17"])
def test_mubs_profiles_the_state_once(capsys, monkeypatch, tol):
    # the verdict is read from the printed profile, and agrees with the library's at the same tol
    path = os.path.join(BENCH_DATA, "fiducial_d7.json")
    calls, profile = [], mubs.uncertainty_profile
    monkeypatch.setattr(mubs, "uncertainty_profile", lambda *args: calls.append(1) or profile(*args))
    code, stdout, _ = run(capsys, ["mubs", "--dim", "7", "--state", path, "--tol", tol, "--json"])
    assert code == 0 and len(calls) == 1
    monkeypatch.setattr(mubs, "uncertainty_profile", profile)
    verdict = mubs.is_minimum_uncertainty(files.load_state_vector(path), mubs.build_mubs(7), float(tol))
    assert json.loads(stdout)["minimum_uncertainty"] is verdict is (tol == "1e-8")


@pytest.mark.parametrize(
    "dim, message",
    [
        # prime: refused by name, as its (d, d) tables could not be indexed in int64
        ("1000000000000000003", "error: dimension must be an integer in [2, 3037000500)"),
        ("1000000016000000063", "error: prime dimension required"),  # 1000000007 * 1000000009
    ],
)
def test_mubs_decides_a_huge_dimension_at_once(capsys, dim, message):
    # trial division took minutes on these; the primality test is exact and takes microseconds
    started = time.perf_counter()
    code, stdout, err = run(capsys, ["mubs", "--dim", dim])
    assert time.perf_counter() - started < 1.0
    assert (code, stdout) == (2, "") and err.startswith(message) and "Traceback" not in err


def test_mubs_refuses_a_dimension_past_the_exact_primality_bound_by_name(capsys):
    bound = mubs._WITNESS_BOUND
    code, stdout, err = run(capsys, ["mubs", "--dim", str(bound)])
    assert (code, stdout) == (2, "")
    assert err == f"error: dimension must be an integer in [2, {bound}), got {bound}\n"


def test_out_of_memory_exits_2_without_a_traceback(capsys, monkeypatch):
    # exit 1 is the honest negative, so a run too large for memory is refused like an input error
    message = "Unable to allocate 15.3 GiB for an array with shape (1010, 1009, 1009) and data type complex128"

    def oversized(dim):
        raise MemoryError(message)

    monkeypatch.setattr(mubs, "build_mubs", oversized)
    code, stdout, err = run(capsys, ["mubs", "--dim", "1009"])
    assert (code, stdout, err) == (2, "", f"error: {message}\n")


def test_kt_reports_bound_and_value(hesse_file, capsys):
    code, stdout, _ = run(capsys, ["kt", "--dim", "3", "--t", "2", "--fiducial", hesse_file, "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lower_bound"] == pytest.approx(4.5, abs=1e-12)
    assert payload["value"] == pytest.approx(4.5, abs=1e-8)
    code, _, _ = run(capsys, ["kt", "--dim", "4", "--t", "0.5"])
    assert code == 2


def test_verify_and_kt_build_no_projector_stack(capsys, monkeypatch):
    # both read the orbit from one run of the overlap kernel: the dense operator_space path, SicSet.vectors and
    # SicSet.projectors are never called
    def refuse(*args, **kwargs):
        raise RuntimeError("the dense path was called")

    for name in ("operator_set", "kt_measure", "frame_potential", "quasi_onb_certify"):
        monkeypatch.setattr(operator_space, name, refuse)
    for name in ("vectors", "projectors"):
        monkeypatch.setattr(verify.SicSet, name, property(refuse))
    calls, kernel = [], verify._residual
    monkeypatch.setattr(verify, "_residual", lambda pc, psi: calls.append(1) or kernel(pc, psi))
    fiducial = str(BENCH_DATA / "fiducial_d7.json")
    for argv in (["verify", "--fiducial", fiducial], ["kt", "--dim", "7", "--t", "2", "--fiducial", fiducial]):
        calls.clear()
        code, stdout, err = run(capsys, argv)
        assert code == 0 and err == "" and stdout
        assert len(calls) == 1


@pytest.mark.parametrize("d", [5, 12, 24])
def test_verify_and_kt_agree_with_the_dense_oracle(d, capsys):
    path = str(BENCH_DATA / f"fiducial_d{d}.json")
    sic = build_sic_set(files.load_fiducial(path))
    opset = operator_space.operator_set(sic.projectors)
    code, stdout, _ = run(capsys, ["verify", "--fiducial", path, "--json"])
    assert code == (0 if sic.certified else 1)
    payload = json.loads(stdout)
    for key, t in (("k1", 1.0), ("k2", 2.0)):
        dense = operator_space.kt_measure(opset, t)
        assert payload[key]["lower_bound"] == dense.lower_bound
        assert abs(payload[key]["value"] - dense.value) <= 1e-10 and abs(payload[key]["gap"] - dense.gap) <= 1e-10
    assert abs(payload["frame_potential"] - operator_space.frame_potential(sic.vectors)) <= 1e-10
    dense = operator_space.quasi_onb_certify(opset, tol=1e-10)
    assert payload["quasi_onb"]["passed"] is dense.passed
    for field in ("projector_deviation", "trace_deviation", "overlap_deviation", "completeness_deviation"):
        assert abs(payload["quasi_onb"][field] - getattr(dense, field)) <= 1e-10
    code, stdout, _ = run(capsys, ["kt", "--dim", str(d), "--t", "2.5", "--fiducial", path, "--json"])
    assert code == 0
    assert abs(json.loads(stdout)["value"] - operator_space.kt_measure(opset, 2.5).value) <= 1e-10


def test_kt_checks_the_dimension_before_any_orbit_work(tmp_path, capsys):
    # a d = 200 orbit has a 23.8 GiB projector stack; the mismatch is refused before the orbit is touched
    path = tmp_path / "d200.json"
    files.write_json_atomic(path, files.fiducial_payload(random_state(np.random.default_rng(200), 200), 1.0, 1.0))
    code, stdout, err = run(capsys, ["kt", "--dim", "3", "--t", "2", "--fiducial", str(path)])
    assert code == 2 and stdout == ""
    assert "fiducial has dim 200, expected 3" in err
    # verify reads the same state from its overlap grid: an honest negative, no traceback
    code, stdout, err = run(capsys, ["verify", "--fiducial", str(path)])
    assert code == 1 and err == "" and "certified: false" in stdout


@pytest.mark.parametrize("with_fiducial", [False, True])
def test_kt_at_large_t_prints_strict_json(with_fiducial, capsys):
    # (d+1)**(t-1) overflows a float at d = 7, t = 400; the bound underflows to a finite value
    argv = ["kt", "--dim", "7", "--t", "400", "--json"]
    if with_fiducial:
        argv += ["--fiducial", str(BENCH_DATA / "fiducial_d7.json")]
    code, stdout, _ = run(capsys, argv)
    assert code == 0
    payload = json.loads(stdout, parse_constant=lambda token: pytest.fail(f"non-finite JSON token {token}"))
    assert payload["lower_bound"] >= 0.0
    assert ("value" in payload) == with_fiducial


# Every numeric flag at its boundaries.  VALID_FLAGS completes each call ({fiducial} is a stored fiducial), and
# BAD_FLAGS lists the values each flag refuses; both are literals, which tools/cli_diff.py reads.
VALID_FLAGS = {
    "search": {"--dim": "2", "--restarts": "1", "--seed": "1"},
    "verify": {"--fiducial": "{fiducial}"},
    "mubs": {"--dim": "3"},
    "kt": {"--dim": "3", "--t": "2"},
}
BAD_FLAGS = {
    ("search", "--dim"): ["0", "-1", "1", "2.5", "nan", "inf", "abc", "4611686018427387904"],
    ("search", "--restarts"): ["0", "-1", "1.5", "nan", "abc"],
    ("search", "--seed"): ["-1", "18446744073709551616", "1.5", "nan", "abc"],
    ("search", "--max-iters"): ["0", "-1", "2.5", "nan", "abc", "9223372036854775808"],
    ("search", "--tol"): ["0", "-1", "nan", "inf", "abc", "1e200", "1e-200"],
    ("verify", "--tol"): ["0", "-1", "nan", "inf", "abc"],
    ("mubs", "--dim"): ["6", "0", "1", "nan", "abc", "9223372036854775837"],
    ("mubs", "--tol"): ["0", "-1", "nan", "inf", "abc"],
    ("kt", "--dim"): ["0", "-1", "2.5", "inf", "abc",
                      "1000000000000000000000000000000000000000000000000000000000000000000"
                      "0000000000000000000000000000000000000000000000000000000000000000000"
                      "0000000000000000000000000000000000000000000000000000000000000000000"],
    ("kt", "--t"): ["0", "0.5", "-1", "nan", "inf", "abc"],
}
# the values refused after parsing: a composite dimension, a finite --tol whose square, the objective tolerance,
# overflows or underflows, a dimension whose K_t bound at t = 2 is past the float range, and dimensions (2**62, and
# a prime below the exact primality bound) whose (d, d) tables could not be indexed in int64
REFUSED_AFTER_PARSING = {"6": "prime dimension required, got 6", "1e200": "--tol 1e+200", "1e-200": "--tol 1e-200",
                         str(10**200): f"bound at dimension {10**200} and t = 2.0 is past the float range",
                         **{d: f"dimension must be an integer in [2, 3037000500), got {d}"
                            for d in ("4611686018427387904", "9223372036854775837")}}


def bad_flag_argv(command: str, flag: str, value: str) -> list:
    flags = {**VALID_FLAGS[command], flag: value}
    fiducial = BENCH_DATA / "fiducial_d5.json"
    return [command] + [text.format(fiducial=fiducial) for pair in flags.items() for text in pair]


@pytest.mark.parametrize("command, flag, value", [(*key, v) for key, values in BAD_FLAGS.items() for v in values])
def test_a_bad_numeric_flag_exits_2_and_names_the_flag(tmp_path, monkeypatch, capsys, command, flag, value):
    monkeypatch.chdir(tmp_path)  # search writes to the working directory by default
    code, stdout, err = run(capsys, bad_flag_argv(command, flag, value))
    assert code == 2 and stdout == ""
    assert REFUSED_AFTER_PARSING.get(value, f"argument {flag}: ") in err
    assert os.listdir(tmp_path) == []


def test_mubs_rejects_non_finite_state(tmp_path, capsys):
    path = tmp_path / "nan_state.json"
    # json.dumps writes the NaN token that Python's json.load accepts by default
    path.write_text(json.dumps({"format_version": 1, "dim": 3, "components": [[float("nan"), 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    code, stdout, err = run(capsys, ["mubs", "--dim", "3", "--state", str(path)])
    assert code == 2
    assert f"{path}: not valid JSON (non-finite number 'NaN')" in err and stdout == ""


def test_convert_rejects_non_finite_probabilities(tmp_path, hesse_file, capsys):
    p_path = tmp_path / "nan_p.json"
    p_path.write_text(json.dumps({"format_version": 1, "dim": 3, "p": [float("nan")] + [0.125] * 8}))
    out = tmp_path / "conv"
    code, _, err = run(capsys, ["convert", "--fiducial", hesse_file, "--probs", str(p_path), "--out", str(out)])
    assert code == 2
    assert f"{p_path}: not valid JSON (non-finite number 'NaN')" in err
    assert not out.exists()


def test_convert_rejects_non_finite_density(tmp_path, hesse_file, capsys):
    rho = np.eye(3) / 3.0
    rho[0, 1] = float("nan")
    rho_path = tmp_path / "nan_rho.json"
    rho_path.write_text(json.dumps(files.density_payload(rho)))
    out = tmp_path / "conv"
    code, _, err = run(capsys, ["convert", "--fiducial", hesse_file, "--rho", str(rho_path), "--out", str(out)])
    assert code == 2
    assert f"{rho_path}: not valid JSON (non-finite number 'NaN')" in err
    assert not out.exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_loaders_reject_non_finite_numbers(tmp_path, token):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 1, "dim": 2, "components": [[%s, 0.0], [1.0, 0.0]]}' % token)
    with pytest.raises(files.FileFormatError, match=f"non-finite number '{token}'"):
        files.load_json(path)
    with pytest.raises(files.FileFormatError, match=f"non-finite number '{token}'"):
        files.load_fiducial(path)


def test_loaders_reject_integers_too_large_for_a_float(tmp_path):
    huge = "1" + "0" * 400
    path = tmp_path / "huge.json"
    path.write_text('{"format_version": 1, "dim": 2, "components": [[%s, 0], [1, 0]], "p": [%s, 0, 0, 0]}' % (huge, huge))
    with pytest.raises(files.FileFormatError, match="components"):
        files.load_fiducial(path)
    with pytest.raises(files.FileFormatError, match="'p'"):
        files.load_probabilities(path)
    path.write_text('{"format_version": 1, "dim": 2, "matrix": [[[%s, 0], [0, 0]], [[0, 0], [0, 0]]]}' % huge)
    with pytest.raises(files.FileFormatError, match="matrix"):
        files.load_density(path)


NON_NUMBERS = ["true", "false", "null", '"0.25"']


@pytest.mark.parametrize("leaf", NON_NUMBERS)
def test_load_state_vector_requires_number_components(tmp_path, leaf):
    path = tmp_path / "state.json"
    path.write_text('{"format_version": 1, "dim": 2, "components": [[1, 0], [%s, 0]]}' % leaf)
    with pytest.raises(files.FileFormatError, match="fiducial file: field 'components'"):
        files.load_fiducial(path)


@pytest.mark.parametrize("leaf", NON_NUMBERS)
def test_load_density_requires_number_entries(tmp_path, leaf):
    path = tmp_path / "rho.json"
    path.write_text('{"format_version": 1, "dim": 2, "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [%s, 0]]]}' % leaf)
    with pytest.raises(files.FileFormatError, match="density file: field 'matrix'"):
        files.load_density(path)


@pytest.mark.parametrize("leaf", NON_NUMBERS)
def test_load_probabilities_requires_number_entries(tmp_path, leaf):
    path = tmp_path / "p.json"
    path.write_text('{"format_version": 1, "dim": 2, "p": [0.25, 0.25, 0.25, %s]}' % leaf)
    with pytest.raises(files.FileFormatError, match="probabilities file: field 'p'"):
        files.load_probabilities(path)


NESTED_FIELDS = {  # per loader kind, the command that reads it from {path}
    "components": ["verify", "--fiducial", "{path}"],
    "matrix": ["convert", "--fiducial", "{fiducial}", "--rho", "{path}", "--out", "{out}"],
    "p": ["convert", "--fiducial", "{fiducial}", "--probs", "{path}", "--out", "{out}"],
}


@pytest.mark.parametrize("depth", [900, 100_000])
@pytest.mark.parametrize("field", NESTED_FIELDS)
def test_loaders_refuse_nesting_too_deep(tmp_path, hesse_file, capsys, field, depth):
    # 100,000 levels overflow the JSON parser's recursion; 900 parse, and must not overflow the leaf check
    path = tmp_path / "deep.json"
    path.write_text('{"format_version": 1, "dim": 3, "%s": %s0%s}' % (field, "[" * depth, "]" * depth))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, [a.format(path=path, fiducial=hesse_file, out=out) for a in NESTED_FIELDS[field]])
    assert code == 2 and stdout == ""
    assert str(path) in err or f"field '{field}'" in err
    assert not out.exists()


FIDUCIAL_D5 = json.loads((BENCH_DATA / "fiducial_d5.json").read_text())
VERIFY_PATH = ["verify", "--fiducial", "{path}"]
BAD_DIM = "fiducial file: field 'dim' must be an integer >= 2"
# per case: what is written to {path} (None: nothing), the command that reads it, the refusal's wording
REFUSED_INPUTS = {
    "mubs-state-of-another-dim": (None, ["mubs", "--dim", "7", "--state", "{fiducial}"],
                                  "dimension mismatch: state has d=5, bases have d=7"),
    "probs-of-another-dim": ({"format_version": 1, "dim": 3, "p": [1 / 9] * 9},
                             ["convert", "--fiducial", "{fiducial}", "--probs", "{path}", "--out", "{out}"],
                             "probability vector has length 9, expected d^2 = 25"),
    "fiducial-file-holding-a-list": ([FIDUCIAL_D5], VERIFY_PATH, "top level must be a JSON object"),
    "dim-as-text": ({**FIDUCIAL_D5, "dim": "5"}, VERIFY_PATH, BAD_DIM),
    "dim-as-float": ({**FIDUCIAL_D5, "dim": 5.0}, VERIFY_PATH, BAD_DIM),
    "dim-as-bool": ({**FIDUCIAL_D5, "dim": True}, VERIFY_PATH, BAD_DIM),
}


@pytest.mark.parametrize("case", REFUSED_INPUTS)
def test_a_refused_input_exits_2_and_names_the_fault(tmp_path, capsys, case):
    content, argv, message = REFUSED_INPUTS[case]
    path, out = tmp_path / "input.json", tmp_path / "out"
    if content is not None:
        path.write_text(json.dumps(content))
    fiducial = BENCH_DATA / "fiducial_d5.json"
    code, stdout, err = run(capsys, [a.format(path=path, fiducial=fiducial, out=out) for a in argv])
    assert code == 2 and stdout == ""
    assert message in err
    assert not out.exists()


def test_verify_rejects_boolean_components(tmp_path, capsys):
    # true/false used to load as 1.0/0.0, so this file was verified as the basis state e0 and exited 1
    path = tmp_path / "bools.json"
    path.write_text('{"format_version": 1, "dim": 2, "components": [[true, false], [false, false]]}')
    code, stdout, err = run(capsys, ["verify", "--fiducial", str(path)])
    assert code == 2 and stdout == ""
    assert "fiducial file: field 'components'" in err


def test_write_json_atomic_refuses_non_finite(tmp_path):
    target = tmp_path / "artifact.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            files.write_json_atomic(target, {"format_version": 1, "value": bad})
    assert os.listdir(tmp_path) == []


def test_json_round_trip_is_byte_identical(tmp_path, fiducial_d3):
    rng = np.random.default_rng(23)
    payloads = [
        files.fiducial_payload(fiducial_d3, 1e-16, 2e-16),
        files.density_payload(random_density(rng, 3)),
        files.probabilities_payload(np.full(9, 1.0 / 9.0), 3),
    ]
    for i, payload in enumerate(payloads):
        path = tmp_path / f"artifact{i}.json"
        files.write_json_atomic(path, payload)
        text = path.read_text()
        assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_loaders_ignore_unknown_fields(tmp_path, fiducial_d3):
    payload = files.fiducial_payload(fiducial_d3, 0.0, 0.0)
    payload["future_extension"] = {"anything": [1, 2, 3]}
    path = tmp_path / "fwd.json"
    files.write_json_atomic(path, payload)
    np.testing.assert_allclose(files.load_fiducial(path), fiducial_d3, atol=1e-15)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "artifact.json"
    files.write_json_atomic(target, {"format_version": 1, "dim": 2})
    files.write_json_atomic(target, {"format_version": 1, "dim": 3})
    leftovers = [name for name in os.listdir(tmp_path) if name != "artifact.json"]
    assert leftovers == []
    assert files.load_json(target)["dim"] == 3


def test_golden_artifacts_parse_and_certify():
    root = os.path.join(os.path.dirname(__file__), "..", "goldens")
    psi = files.load_fiducial(os.path.join(root, "fiducial_d3.json"))
    assert build_sic_set(psi, tol=1e-12).certified
    searched = files.load_fiducial(os.path.join(root, "fiducial_d2_search.json"))
    assert build_sic_set(searched, tol=1e-9).certified
    rho = files.load_density(os.path.join(root, "density_d3_mixed.json"))
    np.testing.assert_allclose(rho, np.eye(3) / 3.0, atol=1e-15)
    p = files.load_probabilities(os.path.join(root, "probabilities_d3_element0.json"))
    assert abs(p.sum() - 1.0) <= 1e-12
    report = files.load_json(os.path.join(root, "report_d2_search.json"))
    assert report["kind"] == "run_report" and report["certified"] is True
    for name in os.listdir(root):
        text = Path(root, name).read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2) + "\n" == text


def test_loader_rejects_wrong_shapes(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"format_version": 1, "dim": 3, "p": [0.5, 0.5]}))
    with pytest.raises(files.FileFormatError, match="p"):
        files.load_probabilities(path)
    path2 = tmp_path / "rect.json"
    path2.write_text(json.dumps({"format_version": 1, "dim": 2, "matrix": [[[1, 0]], [[0, 0]]]}))
    with pytest.raises(files.FileFormatError, match="matrix"):
        files.load_density(path2)
