"""Multi-view graph representation, validation, normalization, and file I/O.

A multi-view graph is a single node set observed through several nonnegative
symmetric affinity matrices (e.g., functional and structural brain
connectivity over the same regions). Matrices are stored dense, 8 n^2
bytes per view, and the views are the only n-by-n arrays a graph holds:
loading keeps each parsed matrix as its view, validation checks symmetry
in row blocks, and the matrix-free solver works on the views themselves
plus O(n k) per view. The solver has been measured up to n = 2000.

The file functions take a `mapper`. With a process pool's map, a matrix
file of more than BLOCK_BYTES is parsed or formatted in FILE_BLOCKS blocks
of whole rows on the pool's workers, which spreads the text work over
cores; the blocks are put together in file order, so the bytes written
and the arrays read are the same. With the builtin map (the default), and
for a smaller file, a matrix is parsed by one np.loadtxt call and written
one row at a time, which holds less than blocks would.

File formats:
  - matrix: headerless CSV, n rows of n comma-separated decimal values.
  - manifest: JSON object
      {"views": [paths...], "transform": "reject|abs|clamp0",
       "node_names": optional [strings]}
    View paths are resolved relative to the manifest's directory.
"""

from __future__ import annotations

import io
import json
import os
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

SYMMETRY_TOL = 1e-9
# A matrix file of more than BLOCK_BYTES of text is cut into FILE_BLOCKS
# blocks of rows for a worker pool: an n = 200 view (0.7 MB) stays whole
# and starts no worker; an n = 800 view (10 MB) is 64 blocks of 12 or 13
# rows. The parent holds only the blocks in flight (see cli._file_mapper),
# so a count rather than a size keeps that a small share of a view at
# every n: a fixed 1.25 MiB block is already an n = 400 view's 8 n^2
# bytes. With 64 blocks, not 32, and text handed back as bytes, not str,
# the embed-n800 benchmark's peak RSS stays at the row-at-a-time writer's.
BLOCK_BYTES = 5 * 2 ** 18
FILE_BLOCKS = 64
# Rows per block of the symmetry check, whose temporary is one block.
_SYMMETRY_BLOCK_ROWS = 64

TRANSFORMS = ("reject", "abs", "clamp0")

ISOLATED_POLICIES = ("error", "self_loop")


class GraphValidationError(ValueError):
    """An affinity matrix, manifest, or view set violates its contract."""


class IsolatedNodeError(ValueError):
    """A zero-degree node was encountered under the `error` policy."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"node {self.index} has zero degree (isolated)")

    def __reduce__(self):
        # Rebuild from the index, not from the message in `args`, so the
        # error survives the pickle round-trip out of a worker process.
        return type(self), (self.index,)


def _check_transform(transform) -> None:
    if transform not in TRANSFORMS:
        raise GraphValidationError(
            f"unknown transform {transform!r}; expected one of {TRANSFORMS}")


def apply_transform(data: np.ndarray, transform: str) -> np.ndarray:
    """Resolve negative entries according to a manifest-declared transform.

    `reject` raises on any negative entry, `abs` takes magnitudes, and
    `clamp0` floors negatives at zero. Non-finite entries always raise.
    """
    _check_transform(transform)
    data = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(data)):
        raise GraphValidationError("affinity matrix contains non-finite entries")
    if transform == "abs":
        return np.abs(data)
    if transform == "clamp0":
        return np.maximum(data, 0.0)
    if np.any(data < 0):
        i, j = np.argwhere(data < 0)[0]
        raise GraphValidationError(
            f"negative entry {data[i, j]!r} at ({i}, {j}) under transform 'reject'")
    return data


def validate_affinity(data: np.ndarray) -> np.ndarray:
    """Validate one affinity matrix and return it as a read-only float array.

    Enforces: square, finite, entrywise nonnegative, symmetric within
    SYMMETRY_TOL, zero diagonal. A nonzero diagonal is stripped with a
    warning rather than rejected (self-affinity carries no meaning under
    neighbor averaging).

    The input is copied, unless it is a read-only float64 array that owns
    its memory: nothing can write to that without first turning writes
    back on, so it is checked and returned as it is.
    """
    if (type(data) is np.ndarray and data.dtype == np.float64
            and data.flags.owndata and not data.flags.writeable):
        arr = data
    else:
        arr = np.array(data, dtype=np.float64, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphValidationError(f"affinity matrix must be square, got shape {arr.shape}")
    if arr.shape[0] == 0:
        raise GraphValidationError("affinity matrix must have at least one node")
    if not np.all(np.isfinite(arr)):
        raise GraphValidationError("affinity matrix contains non-finite entries")
    if np.any(arr < 0):
        i, j = np.argwhere(arr < 0)[0]
        raise GraphValidationError(
            f"negative entry {arr[i, j]!r} at ({i}, {j}); "
            "apply a transform ('abs' or 'clamp0') or fix the data")
    asym = _max_asymmetry(arr)
    if asym > SYMMETRY_TOL:
        raise GraphValidationError(
            f"affinity matrix asymmetric beyond tolerance: max |a_ij - a_ji| = {asym:g}")
    if np.any(np.diagonal(arr) != 0):
        warnings.warn(
            "affinity matrix has nonzero diagonal entries; self-loops stripped",
            stacklevel=2)
        if arr is data:
            arr = arr.copy()
        np.fill_diagonal(arr, 0.0)
    arr.setflags(write=False)
    return arr


def _max_asymmetry(arr: np.ndarray) -> float:
    """max |a_ij - a_ji|, a block of _SYMMETRY_BLOCK_ROWS rows at a time so
    the only temporary is one block, not an n-by-n difference."""
    asym = 0.0
    for start in range(0, arr.shape[0], _SYMMETRY_BLOCK_ROWS):
        stop = start + _SYMMETRY_BLOCK_ROWS
        diff = arr[start:stop] - arr[:, start:stop].T
        asym = max(asym, float(np.max(np.abs(diff, out=diff))))
    return asym


@dataclass(frozen=True)
class MultiViewGraph:
    """A node set with one validated affinity matrix per view.

    Immutable after construction; views are read-only float64 arrays that
    all share the same node count.
    """
    views: tuple
    node_names: tuple | None = None

    def __post_init__(self):
        if len(self.views) < 1:
            raise GraphValidationError("a multi-view graph needs at least one view")
        validated = tuple(validate_affinity(v) for v in self.views)
        n = validated[0].shape[0]
        for i, v in enumerate(validated):
            if v.shape[0] != n:
                raise GraphValidationError(
                    f"view {i} has {v.shape[0]} nodes, expected {n} (dimension mismatch)")
        object.__setattr__(self, "views", validated)
        if self.node_names is not None:
            if isinstance(self.node_names, str):
                raise GraphValidationError(
                    f"node_names must be a sequence of names, got the string {self.node_names!r}")
            names = tuple(str(s) for s in self.node_names)
            if len(names) != n:
                raise GraphValidationError(
                    f"got {len(names)} node names for {n} nodes")
            object.__setattr__(self, "node_names", names)

    @property
    def n(self) -> int:
        return self.views[0].shape[0]

    @property
    def m(self) -> int:
        return len(self.views)


def affinity_and_degrees(view: np.ndarray,
                         isolated_policy: str = "error") -> tuple[np.ndarray, np.ndarray]:
    """The affinity A and the degrees d (row sums) of the walk W = A / d.

    W, row i of A divided by d_i, is each node's neighbor distribution.
    Zero-degree nodes make it undefined; `error` raises IsolatedNodeError
    naming the first such node, while `self_loop` gives each isolated node
    a unit self-loop (its row of W becomes a point mass on itself) in a
    copy of the view. Otherwise A is the view itself, not a copy.
    """
    if isolated_policy not in ISOLATED_POLICIES:
        raise ValueError(
            f"unknown isolated_policy {isolated_policy!r}; expected one of {ISOLATED_POLICIES}")
    a = np.asarray(view, dtype=np.float64)
    d = a.sum(axis=1)
    isolated = np.flatnonzero(d == 0)
    if isolated.size:
        if isolated_policy == "error":
            raise IsolatedNodeError(isolated[0])
        a = a.copy()
        a[isolated, isolated] = 1.0
        d = a.sum(axis=1)
    return a, d


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

def _rows_text(rows: np.ndarray) -> bytes:
    """The CSV lines of a block of rows as one ASCII bytes object, which a
    worker hands back to the parent in one piece and the parent writes as
    it is. repr() of a Python float is the shortest string that parses
    back bit-identically, so load(save(a)) == a."""
    return "".join([",".join(map(repr, row.tolist())) + "\n" for row in rows]).encode()


def _block_count(text_bytes: int) -> int:
    """How many blocks a worker pool gets of `text_bytes` of matrix text."""
    return 1 if text_bytes <= BLOCK_BYTES else FILE_BLOCKS


def save_matrix_csv(data: np.ndarray, path, mapper=map) -> None:
    """Write a dense matrix as headerless CSV with exact float round-trip.

    Unless `mapper` is the builtin map, the rows are cut into equal
    blocks, as many as _block_count gives for the text judged by the first
    row's, which `mapper` formats and which are written in file order. A
    matrix of one block is formatted a row at a time in this process, so
    no more than one row's text is held.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    count = 1 if mapper is map else _block_count(len(_rows_text(arr[:1])) * len(arr))
    if count == 1:
        mapper, count = map, len(arr)
    blocks = [arr[len(arr) * i // count:len(arr) * (i + 1) // count] for i in range(count)]
    with open(path, "wb") as out:
        for text in mapper(_rows_text, blocks):
            out.write(text)


def _parse(source) -> np.ndarray:
    return np.loadtxt(source, delimiter=",", dtype=np.float64, ndmin=2)


def _parse_rows(path, start: int, stop: int) -> np.ndarray:
    """The rows in bytes [start, stop) of a matrix file, decoded as
    np.loadtxt decodes a whole file: the locale's encoding, any newline.
    A block of comment or blank lines alone holds no rows: np.loadtxt's
    warning about it is silenced, and _load_blocks skips the block."""
    with open(path, "rb") as f:
        f.seek(start)
        text = io.TextIOWrapper(io.BytesIO(f.read(stop - start)))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        return _parse(text)


def _byte_blocks(path) -> list:
    """(start, stop) byte ranges of about equal size that cover the file,
    each starting at the start of a line, as many as _block_count gives."""
    size = os.path.getsize(path)
    count = _block_count(size)
    bounds = {0, size}
    with open(path, "rb") as f:
        for i in range(1, count):
            f.seek(size * i // count - 1)
            f.readline()
            bounds.add(f.tell())
    bounds = sorted(bounds)
    return list(zip(bounds[:-1], bounds[1:]))


def _load_blocks(path, mapper) -> np.ndarray | None:
    """A square matrix file parsed block by block by `mapper`, each block
    copied in file order into one array as it arrives; a block of no rows
    is skipped. None if the file is one block, or if the blocks do not
    hold the rows of a square."""
    blocks = _byte_blocks(path)
    if len(blocks) < 2:
        return None
    matrix, filled = None, 0
    starts, stops = zip(*blocks)
    for rows in mapper(_parse_rows, repeat(path), starts, stops):
        if not len(rows):
            continue
        if matrix is None:
            matrix = np.empty((rows.shape[1], rows.shape[1]))
        if rows.shape[1] != len(matrix) or filled + len(rows) > len(matrix):
            return None
        matrix[filled:filled + len(rows)] = rows
        filled += len(rows)
    return matrix if matrix is not None and filled == len(matrix) else None


def load_matrix_csv(path, mapper=map) -> np.ndarray:
    """Read a headerless CSV matrix as float64.

    Unless `mapper` is the builtin map, a file of more than one block (see
    _block_count) is parsed in blocks of whole lines by `mapper`. If a
    block fails, or the blocks do not make a square matrix, the file is
    parsed again in one piece, as a smaller file is, and as anything else
    np.loadtxt reads (an open file, a list of lines) is. So the result, or
    the error and its message, is always that of one np.loadtxt call on
    the whole file.
    """
    matrix = None
    if mapper is not map:
        try:
            matrix = _load_blocks(path, mapper)
        except Exception:  # the whole-file parse below answers, or raises its own error
            pass
    if matrix is None:
        try:
            matrix = _parse(path)
        except ValueError as exc:
            raise GraphValidationError(f"cannot parse matrix file {path}: {exc}") from exc
    return matrix


def read_manifest(manifest_path) -> tuple[list, str, list | None]:
    """A manifest's view paths, resolved against its directory, its
    transform (default `reject`) and its node names (None if absent).

    The views' and transform's values are checked here, before any view
    file is read."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"invalid manifest JSON {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict) or "views" not in manifest:
        raise GraphValidationError(f"manifest {manifest_path} must be an object with a 'views' list")
    paths = manifest["views"]
    if not isinstance(paths, list) or len(paths) < 1:
        raise GraphValidationError("manifest 'views' must list at least one matrix file")
    for rel in paths:
        if not isinstance(rel, str):
            raise GraphValidationError(f"manifest 'views' must list file paths, got {rel!r}")
    transform = manifest.get("transform", "reject")
    _check_transform(transform)
    node_names = manifest.get("node_names")
    if node_names is not None and not isinstance(node_names, list):
        raise GraphValidationError(f"manifest 'node_names' must be a list, got {node_names!r}")
    base = manifest_path.parent
    return [base / rel for rel in paths], transform, node_names


def _read_view(path, transform: str, mapper=map) -> np.ndarray:
    """Parse one view file, check it is square and apply `transform`.

    The result is read-only and held by nothing else, so validate_affinity
    checks it without a copy.
    """
    view = load_matrix_csv(path, mapper)
    if view.ndim != 2 or view.shape[0] != view.shape[1]:
        raise GraphValidationError(f"matrix file {path} is not square: shape {view.shape}")
    view = apply_transform(view, transform)
    view.setflags(write=False)
    return view


def load_view(path, transform: str, mapper=map) -> np.ndarray:
    """One view file, read and validated as load_multiview reads each view."""
    return validate_affinity(_read_view(path, transform, mapper))


def load_multiview(manifest_path, mapper=map) -> MultiViewGraph:
    """Load a multi-view graph from a JSON manifest.

    The manifest's `transform` (default `reject`) decides how negative
    entries in the referenced CSV matrices are handled before validation.
    `mapper` parses the blocks of large view files (see load_matrix_csv).
    """
    paths, transform, node_names = read_manifest(manifest_path)
    views = tuple(_read_view(path, transform, mapper) for path in paths)
    return MultiViewGraph(views=views, node_names=node_names)


def save_multiview(graph: MultiViewGraph, out_dir, mapper=map) -> Path:
    """Write a graph as view_<i>.csv files plus manifest.json; returns the
    manifest path. `mapper` formats the blocks of large views (see
    save_matrix_csv)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for i, view in enumerate(graph.views):
        name = f"view_{i}.csv"
        save_matrix_csv(view, out_dir / name, mapper)
        names.append(name)
    manifest = {"views": names, "transform": "reject"}
    if graph.node_names is not None:
        manifest["node_names"] = list(graph.node_names)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path
