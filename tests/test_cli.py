"""CLI contract: exit codes, file formats, determinism, atomicity."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from sic_forge import SearchConfig, build_sic_set, files, search_detailed
from sic_forge.cli import main
from conftest import random_density


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


def test_search_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, ["search", "--dim", "0", "--restarts", "5", "--seed", "1"])
    assert code == 2


def test_search_rejects_non_finite_tol(tmp_path, capsys):
    # 1e200 and 1e-200 are finite, but the objective tolerance tol**2 overflows or underflows
    for tol in ("inf", "nan", "1e200", "1e-200"):
        code, _, err = run(capsys, ["search", "--dim", "2", "--restarts", "1", "--seed", "1", "--tol", tol, "--out", str(tmp_path)])
        assert code == 2 and "--tol" in err
    assert os.listdir(tmp_path) == []


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
    assert "not certified" in err


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


def test_kt_reports_bound_and_value(hesse_file, capsys):
    code, stdout, _ = run(capsys, ["kt", "--dim", "3", "--t", "2", "--fiducial", hesse_file, "--json"])
    assert code == 0
    payload = json.loads(stdout)
    assert payload["lower_bound"] == pytest.approx(4.5, abs=1e-12)
    assert payload["value"] == pytest.approx(4.5, abs=1e-8)
    code, _, _ = run(capsys, ["kt", "--dim", "4", "--t", "0.5"])
    assert code == 2


def test_kt_rejects_non_finite_t(capsys):
    for t in ("nan", "inf"):
        code, stdout, err = run(capsys, ["kt", "--dim", "3", "--t", t])
        assert code == 2
        assert "--t" in err and stdout == ""


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
    assert not (out / "density.json").exists()


def test_convert_rejects_non_finite_density(tmp_path, hesse_file, capsys):
    rho = np.eye(3) / 3.0
    rho[0, 1] = float("nan")
    rho_path = tmp_path / "nan_rho.json"
    rho_path.write_text(json.dumps(files.density_payload(rho)))
    out = tmp_path / "conv"
    code, _, err = run(capsys, ["convert", "--fiducial", hesse_file, "--rho", str(rho_path), "--out", str(out)])
    assert code == 2
    assert f"{rho_path}: not valid JSON (non-finite number 'NaN')" in err
    assert not (out / "probabilities.json").exists()


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
