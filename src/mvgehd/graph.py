"""Multi-view graph representation, validation, normalization, and file I/O.

A multi-view graph is a single node set observed through several nonnegative
symmetric affinity matrices (e.g., functional and structural brain
connectivity over the same regions). Matrices are stored dense, 8 n^2
bytes per view, and the views are the only n-by-n arrays a graph holds:
loading keeps each parsed matrix as its view, validation checks symmetry
in row blocks, and the matrix-free solver works on the views themselves
plus O(n k) per view. The solver has been measured up to n = 2000.

A matrix file is read as one np.loadtxt call reads it, a view into one
array sized by its first row (see load_matrix_csv). The writers take a
`mapper`: with a process pool's map, a matrix of more than BLOCK_BYTES of
text is formatted in FILE_BLOCKS blocks of whole rows on the pool's
workers, which spreads the text work over cores, and the blocks are
written in file order, so the bytes are the same. With the builtin map
(the default), and for a smaller matrix, a matrix is written one row at a
time, which holds less than blocks would.

File formats:
  - matrix: headerless CSV, n rows of n comma-separated decimal values.
  - manifest: JSON object
      {"views": [paths...], "transform": "reject|abs|clamp0",
       "node_names": optional [strings]}
    View paths are resolved relative to the manifest's directory.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SYMMETRY_TOL = 1e-9
# A matrix of more than BLOCK_BYTES of text is written in FILE_BLOCKS
# blocks of rows, formatted by a worker pool: an n = 200 view (0.7 MB)
# stays whole and starts no worker; an n = 800 view (10 MB) is 64 blocks
# of 12 or 13 rows. The parent holds only the formatted blocks in flight
# (see cli._ordered_map), so a count rather than a size keeps that a small
# share of a view at every n: a fixed 1.25 MiB block is already an
# n = 400 view's 8 n^2 bytes. With 64 blocks, not 32, and text handed back
# as bytes, not str, the embed-n800 benchmark's peak RSS stays at the
# row-at-a-time writer's.
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


def save_matrix_csv(data: np.ndarray, path, mapper=map) -> None:
    """Write a dense matrix as headerless CSV with exact float round-trip.

    Unless `mapper` is the builtin map, a matrix of more than BLOCK_BYTES
    of text, judged by the first row's, is cut into FILE_BLOCKS equal
    blocks of rows, which `mapper` formats and which are written in file
    order. A smaller matrix is formatted a row at a time in this process,
    so no more than one row's text is held.
    """
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {arr.shape}")
    if mapper is map or len(_rows_text(arr[:1])) * len(arr) <= BLOCK_BYTES:
        mapper, count = map, len(arr)
    else:
        count = FILE_BLOCKS
    blocks = [arr[len(arr) * i // count:len(arr) * (i + 1) // count] for i in range(count)]
    with open(path, "wb") as out:
        for text in mapper(_rows_text, blocks):
            out.write(text)


def _loadtxt(path, max_rows=None) -> np.ndarray:
    with warnings.catch_warnings():
        # Only a whole-file read warns, of an empty file: with max_rows,
        # np.loadtxt also warns of each blank line.
        if max_rows is not None:
            warnings.simplefilter("ignore")
        return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2, max_rows=max_rows)


def load_matrix_csv(path) -> np.ndarray:
    """Read a headerless CSV matrix as float64: the array, or the error, of
    one np.loadtxt call on the whole file.

    That call grows its array as rows arrive, and the buffers it outgrows
    leave holes in the heap that made the peak RSS of a process reading
    n = 800 views vary by 10 MB from run to run. So a file named by a path,
    whose first row holds n values and which has room for n such rows, is
    read into one array of n + 1 rows, and read whole only if it holds more.
    """
    try:
        if isinstance(path, (str, os.PathLike)):
            first = _loadtxt(path, max_rows=1)
            n = first.shape[1]
            # A row of n values takes at least 2n - 1 bytes.
            if len(first) and os.path.getsize(path) >= n * (2 * n - 1):
                matrix = _loadtxt(path, max_rows=n + 1)
                if len(matrix) <= n:
                    return matrix
        return _loadtxt(path)
    except ValueError as exc:
        raise GraphValidationError(f"cannot parse matrix file {path}: {exc}") from exc


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


def _read_view(path, transform: str) -> np.ndarray:
    """Parse one view file, check it is square and apply `transform`.

    The result is read-only and held by nothing else, so validate_affinity
    checks it without a copy.
    """
    view = load_matrix_csv(path)
    if view.ndim != 2 or view.shape[0] != view.shape[1]:
        raise GraphValidationError(f"matrix file {path} is not square: shape {view.shape}")
    view = apply_transform(view, transform)
    view.setflags(write=False)
    return view


def load_view(path, transform: str) -> np.ndarray:
    """One view file, read and validated as load_multiview reads each view."""
    return validate_affinity(_read_view(path, transform))


def load_multiview(manifest_path) -> MultiViewGraph:
    """Load a multi-view graph from a JSON manifest.

    The manifest's `transform` (default `reject`) decides how negative
    entries in the referenced CSV matrices are handled before validation.
    """
    paths, transform, node_names = read_manifest(manifest_path)
    views = tuple(_read_view(path, transform) for path in paths)
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
