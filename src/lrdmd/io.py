"""Dataset and model persistence: CSV matrices plus JSON manifests.

Matrices travel as plain CSV with a "rows,cols" header line followed by
rows of 17-significant-digit decimals, which round-trips float64 exactly.
Every value is written as exactly the bytes of ``format(v, ".17g")`` by one
vectorised encoder, ``lrdmd._floattext``: 64-bit integer arithmetic gives the
digits of a block of values at a time, and the rare value whose rounding that
arithmetic cannot settle, and nan and inf, go through Python's own formatting.
The encoder is imported on the first write.  CSV files are streamed a block
at a time, and the whole body is read by one ``np.loadtxt``; only the row and
column counts are checked line by line, and ``#`` is an invalid value, not a
comment.
Datasets are directories (manifest.json, X.csv, Y.csv), and the manifest's
schema version and layout fields n, m, N, T are written here from the pair.
Beside each dataset CSV the writer also saves the parsed matrix as
``<name>.<sha256 of the CSV's bytes>.npy``; the reader loads that copy when
its name matches the CSV it read and parses the text otherwise, so the CSV
stays the source of truth and an edited CSV is never shadowed by its copy.
Models are single JSON files embedding their real matrices as CSV-format
text blocks; one writer and one reader lay out all three kinds.  A spectral
model's complex eigenvalues are the r-by-2 block ``eigvals`` (real part,
imaginary part), joined back bit for bit.  Every reader rejects a document
that is not JSON, another schema version, a layout (n, m or dims) that
disagrees with the matrices and an N, T that are not both null or both
positive integers; the model reader also rejects blocks that are not text or
lack an array of the model's kind (so a spectral file of the older complex
layout names its missing ``eigvals``), flags that are not a list of strings,
and any array the model's own check refuses.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .reduced import ReducedModel, SpectralModel
from .solver import FactoredOperator, SnapshotPair

SCHEMA_VERSION = 1

MANIFEST_NAME = "manifest.json"
X_NAME = "X.csv"
Y_NAME = "Y.csv"


# ---------------------------------------------------------------------------
# Matrix text: each value as the bytes of format(v, ".17g")
# ---------------------------------------------------------------------------

# Values encoded at a time.  The encoder holds about 300 bytes per value while it works, most of
# it ``np.compress``'s index of the bytes it keeps, so a block is about 370 KiB of scratch.
_BLOCK = 1280


def _encoded_blocks(M: np.ndarray) -> Iterator[bytes]:
    """The CSV block of ``M`` in pieces: the "rows,cols" header, then at most ``_BLOCK`` values at a time."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = M.shape
    yield b"%d,%d\n" % (rows, cols)
    if cols == 0:
        yield b"\n" * rows
        return
    from ._floattext import encode

    step = max(1, _BLOCK // cols)  # whole rows, or one row in pieces when it is longer than a block
    for r in range(0, rows, step):
        for c in range(0, cols, _BLOCK):
            piece = M[r : r + step, c : c + _BLOCK]
            last = np.zeros(piece.size, dtype=bool)
            if c + piece.shape[1] == cols:
                last[piece.shape[1] - 1 :: piece.shape[1]] = True
            yield encode(piece.ravel(), last)


def matrix_to_block(M: np.ndarray) -> str:
    return b"".join(_encoded_blocks(M)).decode("ascii")


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
    # The one writer of every matrix: each value the bytes of format(v, ".17g"), from the
    # encoder's integer arithmetic or, for the few values it cannot round, from Python's own
    # formatting.  Streamed a block at a time, so no text of the whole matrix is held.
    with open(path, "wb") as f:
        f.writelines(_encoded_blocks(M))


def _parsed_copy(path: Path, digest: str) -> Path:
    """Where the parsed matrix of the CSV at ``path`` with SHA-256 ``digest`` is kept."""
    return path.with_name(f"{path.name}.{digest}.npy")


def _write_dataset_csv(path: Path, M: np.ndarray) -> None:
    """Write ``M`` as CSV, and beside it the matrix its text parses to, named by the text's hash."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for piece in _encoded_blocks(M):
            digest.update(piece)
            f.write(piece)
    for stale in path.parent.glob(f"{path.name}.*.npy"):
        stale.unlink()
    # C order, as block_to_matrix returns it: the same values in F order round differently in BLAS.
    np.save(_parsed_copy(path, digest.hexdigest()), np.ascontiguousarray(M, dtype=float))


def read_matrix_csv(path: Path | str) -> np.ndarray:
    """The matrix of a CSV file; a copy saved by ``write_dataset`` under the CSV's hash stands in for parsing it."""
    path = Path(path)
    raw = path.read_bytes()
    copy = _parsed_copy(path, hashlib.sha256(raw).hexdigest())
    try:
        M = np.load(copy, allow_pickle=False)
    except (OSError, ValueError, EOFError):
        M = None
    if isinstance(M, np.ndarray) and M.ndim == 2 and M.dtype == np.float64 and M.flags.c_contiguous:
        return M
    try:
        return block_to_matrix(raw.decode())
    except (UnicodeDecodeError, InvalidInput) as exc:
        raise InvalidInput(f"{path}: {exc}") from exc


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_document(path: Path) -> dict:
    """A manifest or model document: a JSON object carrying this module's ``schema_version``."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError for a file that is not text
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested deeper than the parser recurses
        raise InvalidInput(f"{path} nests its JSON too deeply to parse") from exc
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


def read_dataset_x(directory: Path | str) -> tuple[np.ndarray, dict]:
    """X and the manifest of a dataset ``write_dataset`` wrote, without reading Y.

    The manifest's ``n``, ``m`` must match X, and its ``N`` and ``T`` be both
    null (a bare pair) or both positive integers.
    """
    d = Path(directory)
    path = d / MANIFEST_NAME
    manifest = _read_document(path)
    n_traj, traj_len = manifest.get("N"), manifest.get("T")
    if not (n_traj is None and traj_len is None or all(type(v) is int and v > 0 for v in (n_traj, traj_len))):
        raise InvalidInput(f"{path}: N={n_traj!r}, T={traj_len!r}: expected both null or both positive integers")
    X = read_matrix_csv(d / X_NAME)
    if (manifest.get("n"), manifest.get("m")) != X.shape:
        raise InvalidInput(f"{path}: n={manifest.get('n')}, m={manifest.get('m')} but X is {X.shape[0]}x{X.shape[1]}")
    return X, manifest


def read_dataset(directory: Path | str) -> tuple[SnapshotPair, dict]:
    """The pair and manifest ``write_dataset`` wrote, checked by ``read_dataset_x``."""
    X, manifest = read_dataset_x(directory)
    Y = read_matrix_csv(Path(directory) / Y_NAME)
    return SnapshotPair(X=X, Y=Y, n_traj=manifest.get("N"), traj_len=manifest.get("T")), manifest


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------


def _save_model(path: Path | str, kind: str, model, flags, provenance: dict, **arrays: np.ndarray) -> None:
    """Write ``model``'s document, one text block per array.

    The bytes are those of ``dump_json`` of the whole document, whose sorted keys put ``blocks``
    first, but each block's text goes from the encoder into the file a piece at a time.
    """
    rest = dump_json({
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "dims": {"n": model.n, "r": model.r},
        "flags": list(flags),
        "provenance": provenance,
    })
    with open(path, "wb") as f:
        f.write(b'{\n  "blocks": {')
        for i, name in enumerate(sorted(arrays)):
            f.write(b'%s\n    %s: "' % (b"," if i else b"", json.dumps(name).encode()))
            for piece in _encoded_blocks(arrays[name]):
                f.write(piece.replace(b"\n", b"\\n"))  # the only character of the text that JSON escapes
            f.write(b'"')
        f.write(b"\n  },\n  " + rest.removeprefix("{\n  ").encode())


def _eigvals(parts: np.ndarray) -> np.ndarray:
    """The r complex values of an r-by-2 block, joined as float pairs (re + 1j * im would lose -0.0 and inf)."""
    if parts.shape[1] != 2:
        raise InvalidInput(f"block 'eigvals' must be r-by-2 (real part, imaginary part), got {parts.shape[1]} columns")
    return parts.view(complex).ravel()


#: Each model kind's arrays, as ``_save_model`` is given them, and the model ``load_model`` builds from them.
_MODEL_KINDS = {
    "factored": (("P", "Q"), lambda a, f: FactoredOperator(**a, flags=f)),
    "reduced": (("L", "R", "S"), lambda a, f: ReducedModel(**a)),
    "spectral": (("eigvals", "zeta", "xi"), lambda a, f: SpectralModel(_eigvals(a["eigvals"]), a["zeta"], a["xi"], f)),
}


def _read_blocks(path: Path, blocks, names: tuple[str, ...]) -> dict[str, np.ndarray]:
    """The arrays ``names`` of a model document's ``blocks``, one text block each."""
    if not isinstance(blocks, dict):
        raise InvalidInput(f"{path}: 'blocks' must be an object, got {blocks!r:.40}")
    arrays = {}
    for name in names:
        if not isinstance(blocks.get(name), str):
            raise InvalidInput(f"{path}: block {name!r} is {'not a string' if name in blocks else 'missing'}")
        try:
            arrays[name] = block_to_matrix(blocks[name])
        except InvalidInput as exc:
            raise InvalidInput(f"{path}: block {name!r}: {exc}") from exc
    return arrays


def save_factored(path: Path | str, op: FactoredOperator, provenance: dict) -> None:
    _save_model(path, "factored", op, op.flags, provenance, P=op.P, Q=op.Q)


def save_reduced(path: Path | str, model: ReducedModel, provenance: dict) -> None:
    _save_model(path, "reduced", model, (), provenance, L=model.L, R=model.R, S=model.S)


def save_spectral(path: Path | str, model: SpectralModel, provenance: dict) -> None:
    arrays = {"eigvals": np.column_stack((model.eigvals.real, model.eigvals.imag)), "zeta": model.right_vecs,
              "xi": model.left_vecs}
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
    arrays = _read_blocks(path, doc.get("blocks"), names)
    try:
        obj = build(arrays, tuple(flags))
    except InvalidInput as exc:  # the model's own shape and type check
        raise InvalidInput(f"{path}: {exc}") from exc
    if doc.get("dims") != {"n": obj.n, "r": obj.r}:
        raise InvalidInput(f"{path}: model dims {doc.get('dims')} but its blocks give n={obj.n}, r={obj.r}")
    return obj, kind, doc.get("provenance", {})
