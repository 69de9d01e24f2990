"""JSON artifact formats: atomic writes and strict loads.

Every artifact carries ``format_version`` and ``dim``.  Complex numbers are
two-element ``[re, im]`` arrays and matrices are row-major arrays of rows.
Readers ignore unknown fields; a malformed file raises ``FileFormatError``
with the offending field named in the message.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

__all__ = [
    "FORMAT_VERSION",
    "FileFormatError",
    "density_payload",
    "fiducial_payload",
    "load_density",
    "load_fiducial",
    "load_json",
    "load_probabilities",
    "load_state_vector",
    "probabilities_payload",
    "write_json_atomic",
]

FORMAT_VERSION = 1


class FileFormatError(ValueError):
    """Raised when an artifact file is malformed; the message names the bad field."""


def _to_pairs(a: np.ndarray) -> list:
    """Complex array as nested lists of [re, im] pairs: a vector's list, a matrix's row-major rows."""
    return np.stack((a.real, a.imag), axis=-1).tolist()


def write_json_atomic(path, payload) -> None:
    """Serialize to a temp file in the target directory, then rename into place."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _finite_number(text: str) -> float:
    """Parse hook for float literals and the NaN/Infinity tokens: JSON numbers must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def load_json(path) -> dict:
    """Parse a JSON file, mapping syntax errors and non-finite numbers to FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle, parse_float=_finite_number, parse_constant=_finite_number)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: not valid JSON (nested too deep to parse)") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: top level must be a JSON object")
    return payload


def _require(payload: dict, field: str, label: str):
    if field not in payload:
        raise FileFormatError(f"{label} file: missing field '{field}'")
    return payload[field]


def _dim_field(payload: dict, label: str) -> int:
    raw = _require(payload, "dim", label)
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 2:
        raise FileFormatError(f"{label} file: field 'dim' must be an integer >= 2")
    return raw


def _numbers(value, depth: int) -> bool:
    """True when every leaf of a parsed JSON value within ``depth`` list levels is a number; true and false are not.

    Lists nested deeper cannot have the expected shape and are left to the shape check, so the recursion is no
    deeper than the expected array.
    """
    if isinstance(value, list):
        return depth == 0 or all(_numbers(item, depth - 1) for item in value)
    return type(value) in (int, float)


def _array_field(path, label: str, field: str, shape_of_dim) -> np.ndarray:
    """Read the artifact at ``path`` and return its ``field`` as a float array of shape ``shape_of_dim(dim)``."""
    payload = load_json(path)
    d = _dim_field(payload, label)
    shape = shape_of_dim(d)
    rule = f"{label} file: field '{field}' must be an array of numbers of shape {shape} for dim {d}"
    raw = _require(payload, field, label)
    if not _numbers(raw, len(shape)):  # numpy would read null as NaN, true as 1 and "0.25" as 0.25
        raise FileFormatError(f"{rule}, got an entry that is not a number")
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(rule) from exc
    if arr.shape != shape:
        raise FileFormatError(f"{rule}, got shape {arr.shape}")
    return arr


def _artifact(kind: str, extra: dict | None = None, /, **fields) -> dict:
    """An artifact: ``format_version`` and ``kind``, then ``fields`` in order, then ``extra``'s blocks.

    A key of ``extra`` that is already present overrides its value in place.
    """
    return {"format_version": FORMAT_VERSION, "kind": kind, **fields, **(extra or {})}


def fiducial_payload(psi, gram: float, quartic: float) -> dict:
    """Fiducial artifact: raw components plus a recomputable residual block."""
    psi = np.asarray(psi, dtype=complex)
    residuals = {"gram": float(gram), "quartic": float(quartic)}
    return _artifact("fiducial", dim=int(psi.shape[0]), components=_to_pairs(psi), residuals=residuals)


def load_state_vector(path, label: str = "state") -> np.ndarray:
    """Read the components of a state-vector artifact (fiducial files included): dim [re, im] pairs."""
    arr = _array_field(path, label, "components", lambda d: (d, 2))
    return arr[:, 0] + 1j * arr[:, 1]


def load_fiducial(path) -> np.ndarray:
    """Read a fiducial file; residual blocks are advisory and recomputed by users."""
    return load_state_vector(path, label="fiducial")


def density_payload(matrix, extra: dict | None = None) -> dict:
    """Density-matrix artifact; ``extra`` blocks (diagnostics) are appended as-is."""
    matrix = np.asarray(matrix, dtype=complex)
    return _artifact("density_matrix", extra, dim=int(matrix.shape[0]), matrix=_to_pairs(matrix))


def load_density(path) -> np.ndarray:
    """Read a density-matrix artifact, rows of [re, im] pairs (structure only; physics checks live elsewhere)."""
    arr = _array_field(path, "density", "matrix", lambda d: (d, d, 2))
    return arr[:, :, 0] + 1j * arr[:, :, 1]


def probabilities_payload(p, d: int, extra: dict | None = None) -> dict:
    """Probability-vector artifact; entries are stored as plain floats."""
    return _artifact("probabilities", extra, dim=int(d), p=[float(x) for x in np.asarray(p, dtype=float)])


def load_probabilities(path) -> np.ndarray:
    """Read a probability-vector artifact of length dim^2."""
    return _array_field(path, "probabilities", "p", lambda d: (d * d,))
