"""Dataset and model persistence: CSV matrices plus JSON manifests.

Matrices travel as plain CSV with a "rows,cols" header line followed by
rows of 17-significant-digit decimals, which round-trips float64 exactly.
Each row is written by one ``%`` format (CSV files are streamed row by row)
and the whole body is read by one ``np.loadtxt``; only the row and column
counts are checked line by line, and ``#`` is an invalid value, not a comment.
Datasets are directories (manifest.json, X.csv, Y.csv), and the manifest's
schema version and layout fields n, m, N, T are written here from the pair.
Beside each dataset CSV the writer also saves the parsed matrix as
``<name>.<sha256 of the CSV's bytes>.npy``; the reader loads that copy when
its name matches the CSV it read and parses the text otherwise, so the CSV
stays the source of truth and an edited CSV is never shadowed by its copy.
Models are single JSON files embedding their matrices as CSV-format text
blocks (complex matrices split into _re/_im blocks); one writer and one
reader lay out all three kinds.  Every reader rejects a document that is not
JSON, another schema version, a layout (n, m or dims) that disagrees with the
matrices and an N, T that are not both null or both positive integers; the
model reader also rejects blocks that are not text, lack an array of the
model's kind or split one into _re/_im halves of two shapes, and flags that
are not a list of strings.
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
    """Inverse of ``matrix_to_block``; blank lines are skipped and nothing is read as a comment.

    A ``rows,0`` block is its header alone (its rows are empty lines) and reads as a (rows, 0) array.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InvalidInput("empty matrix block")
    try:
        rows, cols = (int(p) for p in lines[0].split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad matrix header {lines[0]!r}") from exc
    if rows < 0 or cols < 0:
        raise InvalidInput(f"bad matrix header {lines[0]!r}")
    body = lines[1:]
    if not body and rows * cols == 0:
        return np.empty((rows, cols))
    if len(body) != rows:
        raise InvalidInput(f"expected {rows} data rows, found {len(body)}")
    for i, ln in enumerate(body):
        if ln.count(",") != cols - 1:
            raise InvalidInput(f"row {i} has {ln.count(',') + 1} values, expected {cols}")
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


def _parsed_copy(path: Path, digest: str) -> Path:
    """Where the parsed matrix of the CSV at ``path`` with SHA-256 ``digest`` is kept."""
    return path.with_name(f"{path.name}.{digest}.npy")


def _write_dataset_csv(path: Path, M: np.ndarray) -> None:
    """Write ``M`` as CSV, and beside it the matrix its text parses to, named by the text's hash."""
    write_matrix_csv(path, M)
    for stale in path.parent.glob(f"{path.name}.*.npy"):
        stale.unlink()
    # C order, as block_to_matrix returns it: the same values in F order round differently in BLAS.
    np.save(_parsed_copy(path, hashlib.sha256(path.read_bytes()).hexdigest()), np.ascontiguousarray(M, dtype=float))


def read_matrix_csv(path: Path | str) -> np.ndarray:
    """The matrix of a CSV file; a copy saved by ``write_dataset`` under the CSV's hash stands in for parsing it."""
    path = Path(path)
    copy = _parsed_copy(path, hashlib.sha256(path.read_bytes()).hexdigest())
    try:
        M = np.load(copy, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        M = None
    if isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype == np.float64 and M.flags.c_contiguous:
        return M
    return block_to_matrix(path.read_text())


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_document(path: Path) -> dict:
    """A manifest or model document: a JSON object carrying this module's ``schema_version``."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for a file that is not text
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path} is not a JSON object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1 == 1.0
        raise InvalidInput(f"{path}: unsupported schema version {version!r}")
    return doc


def manifest_hash(manifest: dict) -> str:
    return hashlib.sha256(dump_json(manifest).encode()).hexdigest()


def write_dataset(directory: Path | str, data: SnapshotPair, manifest: dict) -> None:
    """Write manifest.json, X.csv and Y.csv (each CSV with its parsed copy).

    The manifest gains the schema version and the layout n, m, N, T.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    layout = {"schema_version": SCHEMA_VERSION, "n": data.n, "m": data.m, "N": data.n_traj, "T": data.traj_len}
    (d / MANIFEST_NAME).write_text(dump_json({**manifest, **layout}))
    _write_dataset_csv(d / X_NAME, data.X)
    _write_dataset_csv(d / Y_NAME, data.Y)


def read_dataset(directory: Path | str) -> tuple[SnapshotPair, dict]:
    """The pair and manifest ``write_dataset`` wrote; the manifest's ``n``, ``m`` must match X.

    ``N`` and ``T`` are both null (a bare pair) or both positive integers.
    """
    d = Path(directory)
    manifest = _read_document(d / MANIFEST_NAME)
    n_traj, traj_len = manifest.get("N"), manifest.get("T")
    if not (n_traj is None and traj_len is None or all(type(v) is int and v > 0 for v in (n_traj, traj_len))):
        raise InvalidInput(f"manifest N={n_traj!r}, T={traj_len!r}: expected both null or both positive integers")
    X = read_matrix_csv(d / X_NAME)
    Y = read_matrix_csv(d / Y_NAME)
    if (manifest.get("n"), manifest.get("m")) != X.shape:
        raise InvalidInput(f"manifest n={manifest.get('n')}, m={manifest.get('m')} but X is {X.shape[0]}x{X.shape[1]}")
    pair = SnapshotPair(X=X, Y=Y, n_traj=n_traj, traj_len=traj_len)
    return pair, manifest


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _save_model(path: Path | str, kind: str, model, flags, provenance: dict, **arrays: np.ndarray) -> None:
    """Write ``model``'s document; each complex array goes in as a ``<name>_re`` and a ``<name>_im`` block."""
    blocks = {}
    for name, M in arrays.items():
        if np.iscomplexobj(M):
            blocks[f"{name}_re"], blocks[f"{name}_im"] = matrix_to_block(M.real), matrix_to_block(M.imag)
        else:
            blocks[name] = matrix_to_block(M)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dims": {"n": model.n, "r": model.r},
        "flags": list(flags),
        "provenance": provenance,
        "blocks": blocks,
    }
    Path(path).write_text(dump_json(doc))


#: Each model kind's arrays, as ``_save_model`` is given them, and the model ``load_model`` builds from them.
_MODEL_KINDS = {
    "factored": (("P", "Q"), lambda a, f: FactoredOperator(**a, flags=f)),
    "reduced": (("L", "R", "S"), lambda a, f: ReducedModel(**a)),
    "spectral": (("eigvals", "zeta", "xi"), lambda a, f: SpectralModel(a["eigvals"].ravel(), a["zeta"], a["xi"], f)),
}


def _read_blocks(path: Path, blocks, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The arrays ``names`` of a model document's ``blocks``, each one block or a ``<name>_re``/``<name>_im`` pair."""
    if not isinstance(blocks, dict):
        raise InvalidInput(f"{path}: 'blocks' must be an object, got {blocks!r:.40}")
    arrays = {}
    for name in names:
        keys = [name] if name in blocks else [f"{name}_re", f"{name}_im"]
        for key in keys:
            if not isinstance(blocks.get(key), str):
                raise InvalidInput(f"{path}: block {key!r} is {'not a string' if key in blocks else 'missing'}")
        parts = [block_to_matrix(blocks[key]) for key in keys]
        if len(parts) == 2 and parts[0].shape != parts[1].shape:
            raise InvalidInput(f"{path}: blocks {keys[0]!r} and {keys[1]!r} differ in shape")
        # Joined as float pairs, not summed as re + 1j * im, which loses the sign of zeros and turns inf into nan.
        arrays[name] = parts[0] if len(parts) == 1 else np.stack(parts, axis=-1).view(complex)[..., 0]
    return arrays


def save_factored(path: Path | str, op: FactoredOperator, provenance: dict) -> None:
    _save_model(path, "factored", op, op.flags, provenance, P=op.P, Q=op.Q)


def save_reduced(path: Path | str, model: ReducedModel, provenance: dict) -> None:
    _save_model(path, "reduced", model, (), provenance, L=model.L, R=model.R, S=model.S)


def save_spectral(path: Path | str, model: SpectralModel, provenance: dict) -> None:
    arrays = {"eigvals": model.eigvals, "zeta": model.right_vecs, "xi": model.left_vecs}
    _save_model(path, "spectral", model, model.flags, provenance, **arrays)


def load_model(path: Path | str):
    """Load any model file; returns (object, kind, provenance).  Its ``dims`` must match its blocks."""
    path = Path(path)
    doc = _read_document(path)
    kind, flags = doc.get("kind"), doc.get("flags", [])
    if not isinstance(kind, str) or kind not in _MODEL_KINDS:
        raise InvalidInput(f"{path}: unknown model kind {kind!r}")
    if not (isinstance(flags, list) and all(isinstance(f, str) for f in flags)):
        raise InvalidInput(f"{path}: 'flags' must be a list of strings, got {flags!r:.40}")
    names, build = _MODEL_KINDS[kind]
    obj = build(_read_blocks(path, doc.get("blocks"), names), tuple(flags))
    if doc.get("dims") != {"n": obj.n, "r": obj.r}:
        raise InvalidInput(f"{path}: model dims {doc.get('dims')} but its blocks give n={obj.n}, r={obj.r}")
    return obj, kind, doc.get("provenance", {})
