"""Lead fields, linear inverse operators, and their on-disk formats.

The head model is deliberately synthetic: electrodes live on the unit
sphere, sources on a cubic lattice strictly inside ``CORTEX_RADIUS``, and
the gain from a voxel to an electrode is the inverse of their Euclidean
distance. That keeps the gain matrix full row rank (no re-referencing is
applied, which would cost one rank) while staying agnostic about anatomy;
any externally computed gain matrix can be loaded through the same PCF1
container.

PCF1 matrix container (little-endian throughout)::

    bytes 0-3   magic "PCF1"
    byte  4     dtype: 0 = real float64, 1 = complex float64 (re, im pairs)
    bytes 5-8   rows, uint32
    bytes 9-12  cols, uint32
    bytes 13-   row-major float64 payload

Every CSV file of the package goes through the table layer here.
:func:`write_table` writes floats with ``repr``, so round trips are exact.
The numeric tables (voxels, maps, epochs) skip its per-field work:
:func:`write_lines` writes rows pre-formatted with ``repr``, the bytes
``csv.writer`` would write for them, and a :class:`VoxelGrid` formats its
``id,x,y,z`` text once for every table it is written into. Tables that
hold strings, which ``csv`` may quote, stay on :func:`write_table`.
:func:`read_table` holds the rules all tables share: exact header, exact
field count, typed fields, finite numbers, at least one row; a breach is a
FormatError naming the file and line. :func:`rows_by_id` checks voxel ids
``0..n-1``, :func:`sidecar` names the ``<stem>.<kind>.csv`` files next to a
PCF1 matrix, :func:`read_manifest` / :func:`write_manifest` handle the
``key,value`` tables, and :func:`write_all` writes files all or nothing.
"""

from __future__ import annotations

import csv
import math
import mmap
import os
import struct
from dataclasses import InitVar, dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    DimensionError,
    FormatError,
    SingularMatrixError,
    ValidationError,
)
from .matcore import RANK_TOL, _frozen

#: Scalp sphere radius is 1; sources must stay strictly inside this radius.
CORTEX_RADIUS = 0.85

#: Lattice spacing that yields roughly 800 voxels inside ``CORTEX_RADIUS``.
DEFAULT_GRID_SPACING = 0.145

#: Dense resolution matrices are refused above this voxel count.
MAX_DENSE_VOXELS = 2000

_PCF1_MAGIC = b"PCF1"
_PCF1_REAL = 0
_PCF1_COMPLEX = 1


# ---------------------------------------------------------------------------
# geometry


@dataclass(frozen=True)
class ElectrodeArray:
    """Named scalp electrodes on the unit sphere; ``positions`` is a read-only copy."""

    labels: tuple[str, ...]
    positions: np.ndarray  # (n_electrodes, 3), unit norm

    def __post_init__(self):
        positions = _frozen(self.positions, np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise DimensionError("electrode positions must be (n, 3)")
        if positions.shape[0] == 0:
            raise DimensionError("electrode array is empty")
        if len(self.labels) != positions.shape[0]:
            raise DimensionError("label count does not match position count")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("electrode labels must be unique")
        norms = np.linalg.norm(positions, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-9):
            raise ValidationError("electrode positions must be unit norm")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown electrode label {label!r}") from None


@dataclass(frozen=True)
class VoxelGrid:
    """Source positions, with the characteristic spacing used for metrics.

    ``positions`` is a read-only column-major copy: a write to the caller's
    array moves neither the grid nor its cached :attr:`row_text`, and each
    coordinate is one contiguous column, as :func:`synth_leadfield` reads it.
    """

    positions: np.ndarray  # (n_voxels, 3)
    spacing: float

    def __post_init__(self):
        positions = _frozen(self.positions, np.float64, order="F")
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise DimensionError("voxel positions must be (n, 3)")
        if positions.shape[0] == 0:
            raise DimensionError("voxel grid is empty")
        if not np.all(np.isfinite(positions)):
            raise ValidationError("voxel positions contain non-finite values")
        if not (math.isfinite(self.spacing) and self.spacing > 0):
            raise ValidationError(f"spacing must be finite and > 0, got {self.spacing}")
        ordered = positions[np.lexsort(positions.T)]  # equal rows end up adjacent
        if np.any(np.all(ordered[1:] == ordered[:-1], axis=1)):
            raise ValidationError("voxel grid contains duplicate positions")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "spacing", float(self.spacing))

    def __len__(self) -> int:
        return self.positions.shape[0]

    @cached_property
    def row_text(self) -> tuple[str, ...]:
        """Each voxel's ``id,x,y,z`` text for :func:`write_lines`, made on first use."""
        rows = enumerate(self.positions.tolist())
        return tuple(f"{i},{x!r},{y!r},{z!r}" for i, (x, y, z) in rows)


def _arc_midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    mid = a + b
    return mid / np.linalg.norm(mid)


def _from_angles(elevation_deg: float, azimuth_deg: float) -> np.ndarray:
    """Unit vector from elevation above the horizontal plane and azimuth.

    Azimuth is measured from the anterior direction (+y), positive toward
    the left; axes are right-anterior-superior.
    """
    elevation = np.deg2rad(elevation_deg)
    azimuth = np.deg2rad(azimuth_deg)
    return np.array(
        [
            -np.sin(azimuth) * np.cos(elevation),
            np.cos(azimuth) * np.cos(elevation),
            np.sin(elevation),
        ]
    )


def builtin_1020_electrodes() -> ElectrodeArray:
    """The 19-channel 10/20 montage on an ideal unit sphere.

    Construction (elevation above the horizontal plane / azimuth from the
    anterior direction, positive leftward):

    * ``Cz`` at the vertex; ``Fz``/``Pz`` and ``C3``/``C4`` at elevation 54
      on the midline and central coronal arcs.
    * The circumferential ring at elevation 18: ``Fp1``/``Fp2`` at azimuth
      +-18, ``F7``/``F8`` at +-54, ``T3``/``T4`` at +-90, ``T5``/``T6`` at
      +-126, ``O1``/``O2`` at +-162.
    * ``F3``/``F4`` and ``P3``/``P4`` at the great-circle midpoints of
      (``Fz``, ``F7``/``F8``) and (``Pz``, ``T5``/``T6``).

    The resulting coordinates are a stable part of the public contract.
    """
    ring = {
        "Fp1": 18.0, "Fp2": -18.0,
        "F7": 54.0, "F8": -54.0,
        "T3": 90.0, "T4": -90.0,
        "T5": 126.0, "T6": -126.0,
        "O1": 162.0, "O2": -162.0,
    }
    points = {name: _from_angles(18.0, az) for name, az in ring.items()}
    points["Cz"] = _from_angles(90.0, 0.0)
    points["Fz"] = _from_angles(54.0, 0.0)
    points["Pz"] = _from_angles(54.0, 180.0)
    points["C3"] = _from_angles(54.0, 90.0)
    points["C4"] = _from_angles(54.0, -90.0)
    points["F3"] = _arc_midpoint(points["Fz"], points["F7"])
    points["F4"] = _arc_midpoint(points["Fz"], points["F8"])
    points["P3"] = _arc_midpoint(points["Pz"], points["T5"])
    points["P4"] = _arc_midpoint(points["Pz"], points["T6"])

    order = (
        "Fp1", "Fp2", "F7", "F3", "Fz", "F4", "F8",
        "T3", "C3", "Cz", "C4", "T4",
        "T5", "P3", "Pz", "P4", "T6", "O1", "O2",
    )
    positions = np.stack([points[name] for name in order])
    return ElectrodeArray(labels=order, positions=positions)


def spherical_grid(
    spacing: float = DEFAULT_GRID_SPACING,
    radius: float = CORTEX_RADIUS,
) -> VoxelGrid:
    """Cubic lattice of source positions strictly inside ``radius``."""
    for name, value in (("spacing", spacing), ("radius", radius)):
        if not (math.isfinite(value) and value > 0):
            raise ValidationError(f"{name} must be finite and > 0, got {value}")
    reach = int(np.floor(radius / spacing))
    axis = np.arange(-reach, reach + 1, dtype=np.float64) * spacing
    xs, ys, zs = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    inside = np.linalg.norm(points, axis=1) < radius
    return VoxelGrid(positions=points[inside], spacing=spacing)


#: The 13 cell offsets that, with a cell's own pairs, visit every pair of
#: adjacent cells once: those after ``(0, 0, 0)`` in lexicographic order,
#: as ``(x, y)`` column offset -> z offsets.
_FORWARD_CELLS = {
    (0, 0): (1,),
    (0, 1): (-1, 0, 1),
    (1, -1): (-1, 0, 1),
    (1, 0): (-1, 0, 1),
    (1, 1): (-1, 0, 1),
}


@np.errstate(over="ignore")
def min_nn_distance(positions: np.ndarray) -> float:
    """Smallest pairwise distance; recovers the spacing of a regular grid.

    ``positions`` must be an ``(n, 3)`` array of finite coordinates with
    ``n >= 2``. Every pair is measured as ``np.linalg.norm`` of its
    difference, the float a brute-force ``(n, n)`` search gives for it, and
    the result is the brute-force minimum exactly, in O(n) memory and
    near-linear time (a cell list):

    * The smallest distance ``d`` between neighbours in lexicographic order
      is a real pair's distance, so an upper bound; ``0.0`` means
      duplicates, and is returned at once.
    * Cells are cubes of side ``s = max(d (1 + 2^-20), 2^-500) + e 2^-40``,
      ``e`` the largest coordinate range, and a point's cell on each axis is
      ``floor((p - low) / s)``. With ``u = 2^-53``, a pair measured below
      ``d`` has every coordinate gap below ``d (1 + 3u)``: the norm rounds a
      sum of nonnegative squares, so it is at least the largest gap to
      within three roundings, unless a square underflows, which needs a gap
      below ``2^-500``. Rounding in ``(p - low) / s`` changes a pair's gap
      by under ``4u e / s`` cells, far less than the ``2^-40 e / s`` that
      ``s`` holds in reserve, so the pair's cells differ by at most one on
      every axis.
    * Each axis's occupied cells are renumbered in order, adjacent cells
      one apart and wider gaps two apart, so cell keys stay far inside
      ``int64`` for any finite input. The points are sorted by key, and
      each cell is searched against itself and its 13 forward neighbours,
      one member rank at a time over all points.

    A coordinate range beyond the largest float, or an infinite ``d``,
    leaves one cell holding every point: still exact, but quadratic in
    time. Overflow raises no warning: a pair whose gap or squared gap
    overflows measures ``inf``, as in the brute force, so the result is
    ``inf`` only if every pair overflows (``VoxelGrid`` refuses it).
    """
    points = np.asarray(positions, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DimensionError(f"positions must be (n, 3), got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValidationError("positions must be finite")
    if points.shape[0] < 2:
        raise ValidationError("need at least two positions")
    points = points[np.lexsort(points.T[::-1])]
    best = _closest(points, slice(1, None), slice(None, -1))
    if best == 0.0:
        return 0.0
    cells = _cell_coordinates(points, best)
    # A cell's key is its (x, y) column, renumbered in order, then its z:
    # below 2 n^2 + 3 n, where a key of raw x, y, z could reach (2 n)^3.
    x, y, z = cells.T
    y_span, z_span = int(y.max()) + 2, int(z.max()) + 2
    column_values, column_ids = np.unique(x * y_span + y, return_inverse=True)
    keys = column_ids * z_span + z
    order = np.argsort(keys, kind="stable")
    points, keys, x, y, z = points[order], keys[order], x[order], y[order], z[order]
    cell_keys, starts, counts = np.unique(keys, return_index=True, return_counts=True)
    for rank in range(1, int(counts.max())):
        same = np.flatnonzero(keys[rank:] == keys[:-rank])
        best = min(best, _closest(points, same, same + rank))
    for (a, b), z_offsets in _FORWARD_CELLS.items():
        column = _lookup(column_values, (x + a) * y_span + y + b)
        near = np.flatnonzero(column >= 0)
        for c in z_offsets:
            neighbour = _lookup(cell_keys, column[near] * z_span + z[near] + c)
            found = neighbour >= 0
            first, neighbour = near[found], neighbour[found]
            count, start = counts[neighbour], starts[neighbour]
            for rank in range(int(count.max(initial=0))):
                pair = count > rank
                best = min(best, _closest(points, first[pair], start[pair] + rank))
    return best


def _closest(points: np.ndarray, first, second) -> float:
    """Smallest ``np.linalg.norm`` over the pairs ``points[first], points[second]``."""
    return float(np.linalg.norm(points[second] - points[first], axis=1).min())


def _lookup(sorted_values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index of each target in ``sorted_values`` (unique), or -1 where absent."""
    index = np.minimum(np.searchsorted(sorted_values, targets), len(sorted_values) - 1)
    return np.where(sorted_values[index] == targets, index, -1)


def _cell_coordinates(points: np.ndarray, bound: float) -> np.ndarray:
    """Per-axis cell numbers, >= 1, for pairs closer than ``bound``.

    See :func:`min_nn_distance` for the side and the rounding argument.
    Occupied cells are renumbered per axis: adjacent ones stay one apart,
    any wider gap becomes two, so numbers stay below ``2 n``.
    """
    low = points.min(axis=0)
    extent = float(np.max(points.max(axis=0) - low))
    side = max(bound * (1.0 + 2.0**-20), 2.0**-500) + extent * 2.0**-40
    if not math.isfinite(side):
        return np.ones(points.shape, dtype=np.int64)
    grid = np.floor((points - low) / side)
    cells = np.empty(points.shape, dtype=np.int64)
    for axis in range(3):
        values, inverse = np.unique(grid[:, axis], return_inverse=True)
        steps = np.where(np.diff(values) == 1.0, 1, 2)
        cells[:, axis] = np.concatenate(([1], 1 + np.cumsum(steps)))[inverse]
    return cells


# ---------------------------------------------------------------------------
# lead field


@dataclass(frozen=True)
class LeadField:
    """Gain matrix (electrodes x voxels) with its geometry attached.

    Construction applies the rule every lead-field argument meets: 2-d,
    finite, and full row rank (smallest singular value > ``RANK_TOL`` x largest).
    A Cholesky factor of ``K K'`` settles a well-conditioned gain without an
    SVD; any other gain gets the SVD, which decides and words each refusal.
    ``gain`` is a read-only C-ordered copy of the array given, so its
    fingerprint is hashed once and seed rows may read it for the life of
    the object. :func:`synth_leadfield` and :func:`load_leadfield` hand
    over the array they just made (``_fresh``), which is frozen in place.
    """

    gain: np.ndarray
    electrodes: ElectrodeArray
    voxels: VoxelGrid
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        gain = _full_rank_gain(self.gain, fresh=_fresh)
        if gain.shape != (len(self.electrodes), len(self.voxels)):
            raise DimensionError(
                f"gain shape {gain.shape} does not match geometry "
                f"({len(self.electrodes)} electrodes, {len(self.voxels)} voxels)"
            )
        object.__setattr__(self, "gain", gain)

    @property
    def n_electrodes(self) -> int:
        return self.gain.shape[0]

    @property
    def n_voxels(self) -> int:
        return self.gain.shape[1]

    def fingerprint(self) -> str:
        """Stable content hash of the gain matrix (hex digest), hashed once."""
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        return gain_fingerprint(self.gain)


def gain_fingerprint(gain: np.ndarray) -> str:
    """sha256 hex digest of a gain matrix's shape and raw bytes."""
    import hashlib

    array = np.ascontiguousarray(gain, dtype=np.float64)
    digest = hashlib.sha256()
    digest.update(str(array.shape).encode())
    digest.update(array)  # the buffer itself: no bytes copy of the gain
    return digest.hexdigest()


#: An array of at least this many bytes from :func:`_mapped_empty` gets a
#: page mapping of its own: glibc's malloc starts at the same threshold,
#: but raises it to the size of each mapped block freed (up to 32 MiB).
_MAPPED_MIN_BYTES = 128 * 1024


def _mapped_empty(shape) -> np.ndarray:
    """An uninitialised float64 array, in a populated page mapping when large.

    For the two arrays a pass makes and drops in bulk: a Cholesky-route
    right inverse and a seeded map's values. On the C heap such an array's
    memory stays with the process when it is dropped, and a later large
    array reuses it only where it fits between blocks still held; so how
    much memory a run peaks at came to depend on where earlier arrays had
    landed (55 MB between two runs of one dense workload). A private
    mapping goes back to the system when the array is dropped, and it is
    populated in one call, not one page fault per page. Below
    ``_MAPPED_MIN_BYTES``, or where ``mmap`` has no private mappings, this
    is ``np.empty``.
    """
    shape = tuple(shape)
    nbytes = 8 * math.prod(shape)
    if nbytes < _MAPPED_MIN_BYTES or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(shape)
    flags = mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)
    return np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), np.float64).reshape(shape)


def synth_leadfield(electrodes: ElectrodeArray, voxels: VoxelGrid) -> LeadField:
    """Inverse-distance gain matrix for the synthetic spherical model.

    ``gain[e, v] = 1 / |r_e - r_v|``; no reference transform is applied, so
    the matrix keeps rank equal to the electrode count.
    """
    if len(voxels) < len(electrodes):
        raise DimensionError(
            f"need at least as many voxels ({len(voxels)}) as electrodes "
            f"({len(electrodes)})"
        )
    # Row by row over the grid's contiguous coordinate columns, so no
    # (electrodes, voxels, 3) tensor is formed. np.linalg.norm sums the three
    # squares in this order, so each row has the bits of
    # norm(positions - p, axis=1).
    x, y, z = voxels.positions.T
    distances = np.empty((len(electrodes), len(voxels)))
    for row, (ex, ey, ez) in zip(distances, electrodes.positions.tolist()):
        dx, dy, dz = x - ex, y - ey, z - ez
        np.sqrt(dx * dx + dy * dy + dz * dz, out=row)
    if np.any(distances == 0.0):
        raise ValidationError("a voxel coincides with an electrode")
    gain = np.divide(1.0, distances, out=distances)
    return LeadField(gain=gain, electrodes=electrodes, voxels=voxels, _fresh=True)


def voxel_under_electrode(leadfield: LeadField, label: str) -> int:
    """Index of the voxel with the strongest gain to the named electrode."""
    row = leadfield.electrodes.index_of(label)
    return int(np.argmax(np.abs(leadfield.gain[row])))


def electrode_seed_voxels(leadfield: LeadField) -> list[int]:
    """Seed voxel for every electrode, in montage order."""
    return [voxel_under_electrode(leadfield, label) for label in leadfield.electrodes.labels]


# ---------------------------------------------------------------------------
# linear inverses


@dataclass(frozen=True)
class InverseOperator:
    """Linear inverse ``T`` (voxels x electrodes), 2-d and finite.

    ``matrix`` is a read-only copy in the memory order it was given in, so
    a Fortran-ordered ``T`` keeps ``T'`` a C-contiguous view. The builders
    below hand over the array they just solved for (``_fresh``), which no
    caller holds, so it is checked and frozen in place rather than copied.
    """

    matrix: np.ndarray
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        matrix = _frozen(self.matrix, np.float64, _fresh)
        if matrix.ndim != 2:
            raise DimensionError("inverse operator must be a 2-d matrix")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("inverse operator contains non-finite entries")
        object.__setattr__(self, "matrix", matrix)


def _full_rank_gain(leadfield, fresh: bool = False) -> np.ndarray:
    """The gain of a LeadField, or an array checked as LeadField checks it.

    An array is kept as :func:`~pcfield.matcore._frozen` keeps it, in C
    order: a copy, or with ``fresh`` the array itself.
    """
    if isinstance(leadfield, LeadField):
        return leadfield.gain
    gain = _frozen(leadfield, np.float64, fresh, order="C")
    if gain.ndim != 2 or gain.size == 0:
        raise DimensionError("gain must be a nonempty 2-d matrix")
    if not np.all(np.isfinite(gain)):
        raise ValidationError("gain matrix contains non-finite entries")
    if _gram_screen_passes(gain):
        return gain
    singular_values = np.linalg.svd(gain, compute_uv=False)
    if singular_values[-1] <= RANK_TOL * singular_values[0]:
        raise SingularMatrixError(
            "gain matrix is not of full row rank "
            f"(singular values span [{singular_values[-1]:.3e}, "
            f"{singular_values[0]:.3e}]); perturb the voxel grid or "
            "electrode layout"
        )
    return gain


def _gram_screen_passes(gain: np.ndarray) -> bool:
    """True when a Cholesky factor of ``G = K K'`` proves ``K`` full row rank.

    False settles nothing; the SVD in :func:`_full_rank_gain` then decides.
    """
    rows, cols = gain.shape
    if rows > cols:
        return False  # a tall K is never full row rank; the SVD keeps its rule
    # trace(G) >= lambda_max(G) = sigma_max^2, and for rows <= cols the
    # rounding of the product and of the factorisation stays below about
    # 1.5 * rows * cols * eps * trace(G). So a factor of G - c * trace(G) * I,
    # c = 2 * rows * cols * eps, proves sigma_min^2 > rows * cols * eps *
    # trace(G) / 2: sigma_min / sigma_max > sqrt(rows * cols * eps / 2),
    # at least 1e-8, far above RANK_TOL. An overflow anywhere in G makes its
    # trace infinite, and a shift below the smallest normal float would lose
    # the margin to underflow, so neither reaches the factorisation. A
    # Cholesky that meets a NaN may return it instead of raising.
    with np.errstate(all="ignore"):
        gram = gain @ gain.T
        shift = 2 * rows * cols * np.finfo(np.float64).eps * np.trace(gram)
        if not np.finfo(np.float64).tiny <= shift < np.inf:
            return False
        gram[np.diag_indices(rows)] -= shift
        try:
            factor = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            return False
        return bool(np.all(np.isfinite(factor)))


def _inverse_matrix(inverse, gain: np.ndarray | None = None) -> np.ndarray:
    """``T`` of an InverseOperator, shaped to ``gain`` if given.

    An array is wrapped in an InverseOperator first, so it meets that
    type's checks and the result is a read-only copy.
    """
    if not isinstance(inverse, InverseOperator):
        inverse = InverseOperator(matrix=inverse)
    matrix = inverse.matrix
    if gain is not None and matrix.shape != gain.T.shape:
        raise DimensionError(
            f"inverse shape {matrix.shape} does not match gain {gain.shape}"
        )
    return matrix


def _right_inverse(gain: np.ndarray, weighted_gain: np.ndarray) -> np.ndarray:
    """``T = (K W)' (K W K')^(-1)`` for ``weighted_gain = K W``; checks ``K T = I``.

    ``G = K W K'`` is formed once. Its Cholesky factor ``L`` gives the
    small inverse ``G^(-1) = L^(-T) L^(-1)`` and the candidate
    ``T' = G^(-1) K W``, one product over the voxels. When the
    factorisation fails or its candidate misses ``K T = I``, an LU solve
    of ``G T' = K W`` gets the same check, and its result or refusal
    decides: the Cholesky route settles no refusal, so a gain LU accepts
    is never refused. A tall ``K`` (more electrodes than voxels) has no
    right inverse, and is refused by its shape before any solve.
    """
    rows, cols = gain.shape
    if rows > cols:
        raise DimensionError(
            f"gain is {rows} x {cols}: a right inverse needs at least as many "
            "voxels as electrodes"
        )
    gram = weighted_gain @ gain.T
    # A factor of an ill-conditioned G may overflow or hold a NaN instead of
    # raising; such a candidate fails the check below and LU decides.
    with np.errstate(all="ignore"):
        try:
            root_inverse = np.linalg.inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            pass
        else:
            small_inverse = root_inverse.T @ root_inverse
            product = _mapped_empty(weighted_gain.shape)
            matrix = np.matmul(small_inverse, weighted_gain, out=product).T
            if _identity_defect(gain, matrix) <= 1e-8:
                return matrix
    try:
        solved = np.linalg.solve(gram, weighted_gain)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"K W K' is numerically singular: {exc}") from exc
    matrix = solved.T
    identity_defect = _identity_defect(gain, matrix)
    if not identity_defect <= 1e-8:
        raise SingularMatrixError(
            f"right inverse failed the K T = I check (defect "
            f"{identity_defect:.3e}); gain matrix is too ill-conditioned"
        )
    return matrix


def _identity_defect(gain: np.ndarray, matrix: np.ndarray) -> float:
    """``|K T - I|_F``, the check every right inverse must pass to ``1e-8``."""
    return float(np.linalg.norm(gain @ matrix - np.eye(gain.shape[0])))


def min_norm_inverse(leadfield) -> InverseOperator:
    """Minimum-norm inverse ``T = K' (K K')^(-1)``.

    Computed as ``T' = (L^(-T) L^(-1)) K`` from the Cholesky factor ``L`` of
    ``K K'``. When that factorisation fails or its candidate misses the
    ``K T = I`` check (``1e-8``, Frobenius), an LU solve of
    ``K K' T' = K`` is checked the same way and decides, so the gains it
    accepts and the refusals it words are those of the LU solve alone.
    """
    gain = _full_rank_gain(leadfield)
    return InverseOperator(matrix=_right_inverse(gain, gain), _fresh=True)


def weighted_inverse(leadfield, weights) -> InverseOperator:
    """Weighted inverse ``T = W K' (K W K')^(-1)`` for positive diagonal W."""
    gain = _full_rank_gain(leadfield)
    weight_vector = np.array(weights, dtype=np.float64).reshape(-1)
    if weight_vector.shape[0] != gain.shape[1]:
        raise DimensionError(
            f"got {weight_vector.shape[0]} weights for {gain.shape[1]} voxels"
        )
    if np.any(weight_vector <= 0) or not np.all(np.isfinite(weight_vector)):
        raise ValidationError("weights must be finite and strictly positive")
    matrix = _right_inverse(gain, gain * weight_vector[None, :])
    return InverseOperator(matrix=matrix, _fresh=True)


def resolution_matrix(leadfield) -> np.ndarray:
    """Dense resolution matrix ``H = T K`` of the minimum-norm inverse ``T``.

    ``H = K' (K K')^(-1) K`` is the symmetric idempotent projector onto the
    row space of the gain matrix; its trace equals the electrode count. A
    gain :func:`min_norm_inverse` refuses is refused here too, with the
    same error. Refused above ``MAX_DENSE_VOXELS`` voxels.
    """
    gain = _full_rank_gain(leadfield)
    if gain.shape[1] > MAX_DENSE_VOXELS:
        raise DimensionError(
            f"{gain.shape[1]} voxels would materialize a "
            f"{gain.shape[1]}x{gain.shape[1]} matrix (cap: {MAX_DENSE_VOXELS})"
        )
    dense = _right_inverse(gain, gain) @ gain
    return (dense + dense.T) / 2.0


def mp_symmetry_defect(leadfield, inverse) -> float:
    """Asymmetry ``|T K - (T K)'|_F`` of the source-space projector.

    Zero (to rounding) exactly when ``T K`` is symmetric, which holds for
    the minimum-norm inverse but fails for generic weighted inverses; this
    is what separates the reflexive estimator from a Moore-Penrose one.
    With ``X = [T, K']`` and ``Y = [K', -T]`` the asymmetry is ``X Y'``,
    so its norm is ``|R_X R_Y'|_F`` from the thin QR factors of ``X`` and
    ``Y``: no voxel-by-voxel matrix is formed, and the result keeps full
    precision near zero at every grid size. ``K`` must have full row rank.
    """
    gain = _full_rank_gain(leadfield)
    matrix = _inverse_matrix(inverse, gain)
    r_x = np.linalg.qr(np.hstack([matrix, gain.T]), mode="r")
    r_y = np.linalg.qr(np.hstack([gain.T, -matrix]), mode="r")
    return float(np.linalg.norm(r_x @ r_y.T))


# ---------------------------------------------------------------------------
# PCF1 container


def write_pcf1(path, matrix) -> None:
    """Write a real or complex 2-d float64 matrix in the PCF1 container."""
    array = np.asarray(matrix)
    if array.ndim != 2:
        raise DimensionError("PCF1 stores 2-d matrices only")
    if not np.all(np.isfinite(array)):
        raise FormatError("matrix contains non-finite entries")
    complex_ = np.iscomplexobj(array)
    dtype_code, item = (_PCF1_COMPLEX, "<c16") if complex_ else (_PCF1_REAL, "<f8")
    header = _PCF1_MAGIC + struct.pack("<BII", dtype_code, *array.shape)
    payload = np.ascontiguousarray(array, dtype=item)  # the caller's buffer when it fits
    with open(path, "wb") as handle:
        handle.write(header)
        payload.tofile(handle)


def read_pcf1(path) -> np.ndarray:
    """Read a PCF1 matrix file; returns float64 or complex128.

    The header's shape is checked against the file size before any payload
    is read.
    """
    with open(path, "rb") as handle:
        head = handle.read(13)
        if len(head) < 13:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes)")
        if head[:4] != _PCF1_MAGIC:
            raise FormatError(f"{path}: bad magic {head[:4]!r}")
        dtype_code, rows, cols = struct.unpack("<BII", head[4:13])
        if dtype_code not in (_PCF1_REAL, _PCF1_COMPLEX):
            raise FormatError(f"{path}: unknown dtype code {dtype_code}")
        item = np.dtype("<f8") if dtype_code == _PCF1_REAL else np.dtype("<c16")
        payload = os.fstat(handle.fileno()).st_size - 13
        if payload != rows * cols * item.itemsize:
            raise FormatError(
                f"{path}: payload is {payload} bytes, expected "
                f"{rows * cols * item.itemsize} for a {rows}x{cols} matrix"
            )
        matrix = np.fromfile(handle, dtype=item, count=rows * cols)
    if not np.all(np.isfinite(matrix)):
        raise FormatError(f"{path}: matrix contains non-finite entries")
    native = np.float64 if dtype_code == _PCF1_REAL else np.complex128
    return matrix.reshape(rows, cols).astype(native, copy=False)


# ---------------------------------------------------------------------------
# CSV tables and geometry sidecars


def sidecar(path, kind: str) -> Path:
    """``<stem>.<kind>.csv`` next to ``path``, as ``lf.voxels.csv`` for ``lf.pcf``."""
    stem = Path(path).with_suffix("")
    return stem.parent / f"{stem.name}.{kind}.csv"


def write_all(writes) -> None:
    """Run each ``(writer, path, *args)`` as ``writer(path, *args)``, in order.

    If one fails, the files written before it are removed and the error re-raised.
    """
    written = []
    try:
        for writer, path, *args in writes:
            writer(path, *args)
            written.append(Path(path))
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _parser(kind):
    return _finite if kind is float else kind


def utf8_lines(handle):
    """The lines of a text file opened as UTF-8; other bytes are a FormatError."""
    try:
        yield from handle
    except UnicodeDecodeError:
        raise FormatError(f"{handle.name}: not UTF-8 text") from None


def write_table(path, header, rows) -> None:
    """Write a header (a columns dict writes its names) and ``rows`` as CSV.

    Feed numpy data through ``.tolist()``: Python floats are written with
    ``repr``, numpy scalars would not be.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_lines(path, header, chunks) -> None:
    """Write a header as :func:`write_table` does, then rows already formatted.

    ``chunks`` yields lists of row texts, each chunk written in one call
    with the line end ``csv.writer`` uses. Only for numeric rows formatted
    with ``repr``: that is the text ``csv.writer`` writes for ints and
    floats, and nothing in it needs quoting.
    """
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        end = writer.dialect.lineterminator
        for lines in chunks:
            handle.write("".join([line + end for line in lines]))


def read_table(path, columns: dict, rest=None) -> tuple[list[str], list[list]]:
    """Read a CSV table whose header is exactly the names of ``columns``.

    ``columns`` maps each name to the type its fields convert by; ``float``
    fields must be finite. With ``rest`` set, one or more further columns
    of any name follow, converted by ``rest``. Returns the stripped header
    and the converted rows, in file order. The file must be UTF-8 text.
    """
    names = list(columns)
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(utf8_lines(handle))
        header = [name.strip() for name in next(reader, [])]
        extra = len(header) - len(names)
        if header[: len(names)] != names or (extra > 0) != (rest is not None):
            shape = ",".join(names + (["..."] if rest is not None else []))
            raise FormatError(f"{path}: expected header {shape}")
        parsers = [_parser(kind) for kind in [*columns.values(), *[rest] * extra]]
        rows = []
        for line in reader:
            if len(line) != len(parsers):
                raise FormatError(
                    f"{path}:{reader.line_num}: expected {len(parsers)} fields, "
                    f"got {len(line)}"
                )
            try:
                rows.append([parse(text) for parse, text in zip(parsers, line)])
            except ValueError as exc:
                raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: no rows")
    return header, rows


def rows_by_id(path, rows: list[list]) -> list[list]:
    """Rows sorted by their leading id, which must run 0..n-1; ids dropped."""
    rows = sorted(rows, key=lambda row: row[0])
    if [row[0] for row in rows] != list(range(len(rows))):
        raise FormatError(f"{path}: ids must be 0..{len(rows) - 1} without gaps")
    return [row[1:] for row in rows]


def write_manifest(path, entries: dict) -> None:
    """Write ``key,value`` rows under a ``key,value`` header, in dict order."""
    write_table(path, ("key", "value"), entries.items())


def read_manifest(path, required: dict) -> dict:
    """Read a ``key,value`` table; a duplicate or missing key is a FormatError.

    ``required`` maps each key that must be present to the type its value
    converts by, as a table column would; other keys stay strings.
    """
    entries: dict = {}
    for key, value in read_table(path, {"key": str.strip, "value": str})[1]:
        if key in entries:
            raise FormatError(f"{path}: duplicate key {key!r}")
        entries[key] = value
    missing = [key for key in required if key not in entries]
    if missing:
        raise FormatError(f"{path}: missing keys {missing}")
    for key, kind in required.items():
        try:
            entries[key] = _parser(kind)(entries[key])
        except ValueError as exc:
            raise FormatError(f"{path}: {key}: {exc}") from None
    return entries


_ELECTRODE_COLUMNS = {"label": str, "x": float, "y": float, "z": float}
_VOXEL_COLUMNS = {"id": int, "x": float, "y": float, "z": float}


def write_electrodes_csv(path, electrodes: ElectrodeArray) -> None:
    rows = zip(electrodes.labels, electrodes.positions.tolist())
    write_table(path, _ELECTRODE_COLUMNS, ([label, *xyz] for label, xyz in rows))


def read_electrodes_csv(path) -> ElectrodeArray:
    _, rows = read_table(path, _ELECTRODE_COLUMNS)
    return ElectrodeArray(
        labels=tuple(row[0] for row in rows),
        positions=np.array([row[1:] for row in rows]),
    )


def write_voxels_csv(path, voxels: VoxelGrid) -> None:
    write_lines(path, _VOXEL_COLUMNS, [voxels.row_text])


def read_voxels_csv(path) -> VoxelGrid:
    """Read an `id,x,y,z` table; the spacing is its :func:`min_nn_distance`."""
    positions = np.array(rows_by_id(path, read_table(path, _VOXEL_COLUMNS)[1]))
    return VoxelGrid(positions=positions, spacing=min_nn_distance(positions))


def save_leadfield(leadfield: LeadField, path) -> None:
    """Write the geometry CSV sidecars, then the gain (PCF1), all or nothing."""
    write_all([
        (write_electrodes_csv, sidecar(path, "electrodes"), leadfield.electrodes),
        (write_voxels_csv, sidecar(path, "voxels"), leadfield.voxels),
        (write_pcf1, path, leadfield.gain),
    ])


def load_leadfield(path) -> LeadField:
    """Read a PCF1 gain matrix and its geometry sidecars.

    The grid spacing is recovered as the minimum nearest-neighbour distance
    of the voxel positions, which is exact for regular lattices. The search
    is :func:`min_nn_distance`'s cell list: O(N) memory, near-linear time,
    and the same float as a brute-force search over all pairs.
    """
    gain = read_pcf1(path)
    if np.iscomplexobj(gain):
        raise FormatError(f"{path}: lead field must be real, found complex dtype")
    electrodes = read_electrodes_csv(sidecar(path, "electrodes"))
    voxels = read_voxels_csv(sidecar(path, "voxels"))
    return LeadField(gain=gain, electrodes=electrodes, voxels=voxels, _fresh=True)
