"""Property tests: validators name a non-finite entry and refuse a wrong shape; fiducial files round-trip exactly."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sic_forge import (
    as_state_vector,
    check_density_matrix,
    check_probability_vector,
    files,
    frame_potential,
    operator_set,
)

# Few examples keep the suite fast; no example database is written to the working tree.
PROPERTY = settings(max_examples=25, deadline=None, database=None)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
non_finite = st.sampled_from([np.nan, np.inf, -np.inf])


def _complex_array(draw, shape, elements=finite):
    re = draw(arrays(np.float64, shape, elements=elements))
    im = draw(arrays(np.float64, shape, elements=elements))
    return re + 1j * im


def _poison(draw, arr):
    """Set one entry, at a drawn position and in a drawn part, to NaN or +-inf; return its index."""
    index = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
    bad = draw(non_finite)
    arr[index] = complex(bad, 0.0) if draw(st.booleans()) else complex(0.0, bad)
    return index


@PROPERTY
@given(st.data(), st.integers(2, 6))
def test_state_vector_names_non_finite_component(data, d):
    psi = _complex_array(data.draw, (d,))
    _poison(data.draw, psi)
    with pytest.raises(ValueError, match="state vector has a non-finite component"):
        as_state_vector(psi)


@PROPERTY
@given(st.data(), st.integers(2, 4))
def test_probability_vector_names_non_finite_entry(data, d):
    p = data.draw(arrays(np.float64, (d * d,), elements=finite))
    p[data.draw(st.integers(0, d * d - 1))] = data.draw(non_finite)
    with pytest.raises(ValueError, match="probability vector p has a non-finite entry"):
        check_probability_vector(p, d)


@PROPERTY
@given(st.data(), st.integers(2, 5))
def test_density_matrix_names_non_finite_entry(data, d):
    rho = _complex_array(data.draw, (d, d))
    _poison(data.draw, rho)
    with pytest.raises(ValueError, match="density matrix rho has a non-finite entry"):
        check_density_matrix(rho)


@PROPERTY
@given(st.data(), st.integers(1, 5), st.integers(2, 4))
def test_operator_set_names_non_finite_operator(data, n, d):
    ops = _complex_array(data.draw, (n, d, d))
    i, _, _ = _poison(data.draw, ops)
    with pytest.raises(ValueError, match=rf"operator {i} has a non-finite entry"):
        operator_set(ops)


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(1, 4))
def test_frame_potential_names_non_finite_vector(data, n, d):
    vectors = _complex_array(data.draw, (n, d))
    i, _ = _poison(data.draw, vectors)
    with pytest.raises(ValueError, match=rf"vectors has a non-finite entry in row {i}"):
        frame_potential(vectors)


def test_frame_potential_rejects_nan_unit_vector():
    # the unit-norm comparison is false for NaN, so this returned nan
    with pytest.raises(ValueError, match=r"vectors has a non-finite entry in row 0"):
        frame_potential(np.array([[np.nan, 0.0]]))


WRONG_SHAPES = {  # validator, a wrongly shaped input, the refusal
    "state of one component": (as_state_vector, [1.0], "state vector must have dimension >= 2"),
    "operators as one matrix": (operator_set, np.eye(3), r"expected an array of square matrices, got shape \(3, 3\)"),
    "vectors as a stack": (frame_potential, np.ones((2, 3, 3)), r"2-D array of row vectors, got shape \(2, 3, 3\)"),
    "vectors of one component": (frame_potential, np.ones((3, 1)), "dimension must be an integer >= 2, got 1"),
    "non-square density": (check_density_matrix, np.ones((2, 3)) / 2, r"must be square, got shape \(2, 3\)"),
    "2-D probabilities": (check_probability_vector, np.ones((2, 2)) / 4, r"must be 1-D, got shape \(2, 2\)"),
}


@pytest.mark.parametrize("case", WRONG_SHAPES)
def test_validators_refuse_a_wrong_shape(case):
    validator, bad, message = WRONG_SHAPES[case]
    with pytest.raises(ValueError, match=message):
        validator(bad)


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@PROPERTY
@given(st.data(), st.integers(2, 8))
def test_fiducial_file_round_trips_exactly(artifact_dir, data, d):
    z = _complex_array(data.draw, (d,), elements=st.floats(-1e6, 1e6))
    norm = np.linalg.norm(z)
    if not norm > 1e-6:
        z, norm = np.ones(d, dtype=complex), np.sqrt(d)
    psi = as_state_vector(z / norm)
    path = artifact_dir / "fiducial.json"
    files.write_json_atomic(path, files.fiducial_payload(psi, 0.0, 0.0))
    loaded = files.load_fiducial(path)
    assert loaded.dtype == psi.dtype and np.array_equal(loaded, psi)
