"""Connectivity fields on the cortical grid.

Two estimators live here. The classical field propagates a sensor
cross-spectrum through an explicit linear inverse and reads coherences off
the implied source covariance. The partial field never chooses an inverse:
it builds the generalized inverse of the source covariance directly from
the lead field and the (pseudo-)inverted sensor cross-spectrum, which is
the quantity whose off-diagonal structure survives common-source mixing.

Everything is held in factored form. The implied voxel-by-voxel matrices
``T S T'`` and ``W W*`` are never materialized, and neither field keeps a
voxels x rank factor: the classical field holds ``T`` and the range factor
of ``S``, a built partial factor ``K``, the whitener of ``S`` and its row
norms. A seed's map is one normalized column of ``K' S+ K`` (partial)
or ``T S T'`` (classical), read from the real operand ``K`` or ``T'``
rather than a complex thin factor: an electrode-sized complex vector, then
one real product per block of 1024 voxels of the operand, which is half
the bytes of the factor. On the shapes tested these blocks give the bits
of one product over the whole operand; another BLAS build may differ in
the last bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionError,
    SingularMatrixError,
    ValidationError,
)
from .forward import (
    InverseOperator,
    LeadField,
    VoxelGrid,
    _full_rank_gain,
    _inverse_matrix,
    _mapped_empty,
    gain_fingerprint,
    min_norm_inverse,
    read_manifest,
    read_pcf1,
    read_table,
    resolution_matrix,
    rows_by_id,
    sidecar,
    write_all,
    write_lines,
    write_manifest,
    write_pcf1,
)
from .matcore import (
    ReflexiveCheck,
    _frozen,
    _integer,
    _relative_residual,
    as_hermitian,
    is_reflexive_ginverse,
    psd_eig,
)
from .spectra import CrossSpectrum

#: Row norms of the partial factor this far (relative) below the largest
#: row are treated as voxels invisible to the montage.
ZERO_ROW_RTOL = 1e-12

#: Coherence magnitudes may exceed 1 by at most this before rejection.
MAGNITUDE_TOL = 1e-9

#: Re(r)^2 within this of 1 makes the lagged measure degenerate.
DEGENERATE_TOL = 1e-12

#: Legal seeded-map measure tags.
MEASURES = ("classical_coh", "classical_lagged", "partial_coh", "partial_lagged")

#: Rows per block of a per-row reduction over a voxel factor.
_ROW_BLOCK = 1024


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class _SeedRows:
    """Seed rows ``scale * scale[s] * (q @ R)`` of a field ``R' M M* R``.

    Built from ``K`` or ``T``, ``operand`` ``R`` is real (electrodes x
    voxels), ``mixer`` ``M`` is a range factor of ``S`` and
    ``q = M (M* R[:, s])``, so neither ``S+`` nor ``S`` is formed. ``q @ R``
    is the real product ``[Re q; Im q] @ R``, taken one block of
    ``_ROW_BLOCK`` voxels at a time and scaled straight into the row, so no
    temporary outgrows a block; ``R`` is never cast to complex. Without a
    mixer (a loaded or directly built partial factor), ``operand`` is the
    unit-row factor's transpose ``W'``, the row is ``W @ conj(W[s])`` and
    there is no scale.
    """

    operand: np.ndarray
    mixer: np.ndarray | None = None
    scale: np.ndarray | None = None

    def __call__(self, seed: int) -> np.ndarray:
        if self.mixer is None:
            return self.operand.T @ np.conj(self.operand[:, seed])
        mixed = self.mixer @ np.conj(self.operand[:, seed] @ self.mixer)
        mixed *= self.scale[seed]
        lhs = _pairs(mixed).T
        row = np.empty(self.operand.shape[1], dtype=np.complex128)
        parts = _pairs(row).T
        for start, stop in _row_blocks(row.size):
            np.multiply(
                lhs @ self.operand[:, start:stop],
                self.scale[start:stop],
                out=parts[:, start:stop],
            )
        return row


def _pairs(vector: np.ndarray) -> np.ndarray:
    """A complex vector's (re, im) pairs as an (n, 2) real view."""
    return vector.view(np.float64).reshape(-1, 2)


def _reciprocal_sqrt(variances: np.ndarray) -> np.ndarray:
    """``1 / sqrt(variances)``, and 0 where a variance is not positive.

    A dead voxel's 0 is never read: :func:`seeded_map` refuses its field.
    """
    live = variances > 0.0
    scale = np.sqrt(variances, out=np.zeros_like(variances), where=live)
    return np.divide(1.0, scale, out=scale, where=live)


def _row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(matrix, axis=1)``, bit for bit, one row block at a time."""
    return _by_row_blocks(matrix, lambda block: np.linalg.norm(block, axis=1))


def _squared_row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.sum(np.abs(matrix) ** 2, axis=1)``, bit for bit, one row block at a time."""
    return _by_row_blocks(matrix, lambda block: np.sum(np.abs(block) ** 2, axis=1))


def _by_row_blocks(matrix: np.ndarray, reduce) -> np.ndarray:
    """``reduce(matrix)`` for a row-wise ``reduce``, over blocks of ``_ROW_BLOCK`` rows.

    Each row is reduced by the same expression in the same order, so the
    values are those of one call on the whole matrix; the temporaries are
    one block's, not the whole factor's. A product inside ``reduce``
    keeps this as far as BLAS rounds a row alike in a block and in the
    whole matrix (see :func:`_row_blocks`).
    """
    out = np.empty(matrix.shape[0])
    for start, stop in _row_blocks(out.size):
        out[start:stop] = reduce(matrix[start:stop])
    return out


def _row_blocks(n_rows: int):
    """``(start, stop)`` of consecutive blocks of ``_ROW_BLOCK`` rows (or voxels).

    numpy multiplies a one-row matrix with a vector kernel, whose rounding
    is not the matrix kernel's, so a lone last row joins the block before
    it, and only a matrix of one row has a block of one.
    """
    start = 0
    while start < n_rows:
        stop = min(start + _ROW_BLOCK, n_rows)
        if stop == n_rows - 1:
            stop = n_rows
        yield start, stop
        start = stop


@dataclass(frozen=True)
class _Whitened:
    """A built factor's operands: the gain, the whitener and the row norms.

    :meth:`unit_rows` forms ``W = (K' Gamma+ Lambda+^(-1/2)) / norms`` as
    one product over the whole gain; the norms, reduced over row blocks of
    that product, have its bits.
    """

    gain: np.ndarray  # (n_electrodes, n_voxels) real
    whitener: np.ndarray  # (n_electrodes, effective_rank) complex
    norms: np.ndarray  # (n_voxels,) real

    def unit_rows(self) -> np.ndarray:
        pulled_back = _real_times_complex(self.gain.T, self.whitener)
        pulled_back /= self.norms[:, None]
        return pulled_back


class _FactorMatrix:
    """``ConnectivityFactor.W``: the matrix a factor was given, or one formed from its operands.

    A dataclass field whose default is a descriptor is set and read through
    it. Read on the class, it raises AttributeError, so ``W`` keeps no
    default and stays a required field.
    """

    def __get__(self, factor, owner=None):
        if factor is None:
            raise AttributeError("W")
        held = vars(factor)["W"]
        return held.unit_rows() if isinstance(held, _Whitened) else held

    def __set__(self, factor, value):
        vars(factor)["W"] = value


@dataclass(frozen=True)
class ConnectivityFactor:
    """Low-rank square root ``W`` of the partial coherence field.

    The implied field is ``P = W W*`` with unit diagonal; each row of ``W``
    has unit norm. ``effective_rank`` is the rank of the sensor
    cross-spectrum the factor was built from and the column count of
    ``W``; ``fingerprint`` ties the factor to the gain matrix it belongs
    to.

    A factor from :func:`partial_field` holds ``K``, the whitener and the
    row norms, O(voxels) beyond the gain, and reads its seed rows from
    them; its ``W`` is formed anew on each access (voxels x rank complex),
    so read it once. A factor given a ``W`` (by :func:`load_factor`, by
    direct construction or by ``dataclasses.replace``) keeps a read-only
    copy, checks that its rows have unit norm and reads its seed rows from
    it; a later write to the caller's array moves no map.
    :func:`load_factor` hands over the array it just read (``_fresh``),
    which is frozen in place.
    """

    W: np.ndarray = _FactorMatrix()  # (n_voxels, effective_rank) complex
    method: str
    band: tuple[float, float]
    fingerprint: str
    effective_rank: int
    _rows: _SeedRows = field(init=False, repr=False, compare=False)
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        held = vars(self)["W"]
        if isinstance(held, _Whitened):  # from partial_field: unit rows by construction
            n_columns = held.whitener.shape[1]
            rows = _SeedRows(held.gain, held.whitener, 1.0 / held.norms)
        else:
            held = _frozen(held, np.complex128, _fresh)
            if held.ndim != 2:
                raise DimensionError("factor must be a 2-d matrix")
            n_columns = held.shape[1]
            rows = _SeedRows(held.T)
        if n_columns != self.effective_rank:
            raise DimensionError(
                f"factor has {n_columns} columns, effective rank is {self.effective_rank}"
            )
        if self.method != "partial":
            raise ValidationError(f"unknown factor method {self.method!r}")
        if not isinstance(held, _Whitened):
            norms = _row_norms(held)
            worst = float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0
            if not worst <= 1e-10:
                raise ValidationError(
                    f"factor rows must have unit norm (worst deviation {worst:.3e})"
                )
        object.__setattr__(self, "W", held)
        object.__setattr__(self, "band", (float(self.band[0]), float(self.band[1])))
        object.__setattr__(self, "_rows", rows)

    @property
    def n_voxels(self) -> int:
        return self._rows.operand.shape[1]


@dataclass(frozen=True)
class ClassicalField:
    """Source covariance ``S_J = T S T' = A A*`` of an explicit inverse, held factored.

    ``inverse`` is ``T`` (voxels x electrodes): an InverseOperator's matrix,
    read as it is, or a finite 2-d array, of which a read-only copy is
    kept. ``root`` is the range factor ``R = Gamma+ Lambda+^(1/2)`` of
    ``S`` (electrodes x rank, complex), kept as a read-only copy. A later
    write to the caller's arrays moves no map. ``A = T R`` is never stored:
    ``diag``, the per-voxel source variances (squared row norms of
    ``A``), is reduced once over row blocks of ``T R``, and seed rows read
    ``T'`` and ``R``. A voxel with exactly zero variance is dead: it cannot
    appear in any coherence query.
    """

    inverse: np.ndarray  # (n_voxels, n_electrodes) real
    root: np.ndarray  # (n_electrodes, rank) complex
    diag: np.ndarray = field(init=False)  # (n_voxels,) real
    _rows: _SeedRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = _inverse_matrix(self.inverse)
        root = _frozen(self.root, np.complex128)
        if root.ndim != 2 or root.shape[0] != matrix.shape[1]:
            raise DimensionError(
                f"range factor of shape {root.shape} does not match an inverse "
                f"of {matrix.shape[1]} electrodes"
            )
        if not np.all(np.isfinite(root)):
            raise ValidationError("range factor contains non-finite entries")
        variances = _by_row_blocks(
            matrix, lambda block: _squared_row_norms(_real_times_complex(block, root))
        )
        object.__setattr__(self, "inverse", matrix)
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "diag", _frozen(variances, np.float64, fresh=True))
        rows = _SeedRows(matrix.T, root, _reciprocal_sqrt(variances))
        object.__setattr__(self, "_rows", rows)

    @property
    def A(self) -> np.ndarray:
        """The voxels x rank factor ``T R`` of ``S_J``, formed anew on each access."""
        return _real_times_complex(self.inverse, self.root)

    @property
    def n_voxels(self) -> int:
        return self.inverse.shape[0]

    @cached_property
    def dead_voxels(self) -> np.ndarray:
        """Indices with zero source variance (excluded from coherence)."""
        return _frozen(np.flatnonzero(self.diag == 0.0), np.intp, fresh=True)


@dataclass(frozen=True)
class SeededMap:
    """One row of a connectivity field, as nonnegative display values.

    ``seed`` is ``None`` for composites built by :func:`max_over_seeds`.
    Values are clipped into [0, 1] after validation, into an array of
    their own (a page mapping from 128 KiB, see ``forward._mapped_empty``).
    """

    seed: int | None
    values: np.ndarray
    measure: str

    def __post_init__(self):
        _check_measure(self.measure)
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise DimensionError("map values must be a nonempty vector")
        low, high = float(values.min()), float(values.max())  # NaN propagates
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValidationError("map contains non-finite values")
        if low < -MAGNITUDE_TOL or high > 1.0 + MAGNITUDE_TOL:
            raise ValidationError(
                f"map values outside [0, 1]: range [{low:.6g}, {high:.6g}]"
            )
        if self.seed is not None:
            seed = _voxel_index(self.seed, values.size, "seed")
            if self.measure.endswith("_coh") and abs(values[seed] - 1.0) > MAGNITUDE_TOL:
                raise ValidationError("seed self-coherence must be 1")
            object.__setattr__(self, "seed", seed)
        clipped = np.clip(values, 0.0, 1.0, out=_mapped_empty(values.shape))
        object.__setattr__(self, "values", _frozen(clipped, np.float64, fresh=True))

    @property
    def n_voxels(self) -> int:
        return self.values.size


# ---------------------------------------------------------------------------
# shared coercions


def _check_measure(measure: str) -> None:
    """A ValidationError unless ``measure`` is one of :data:`MEASURES`."""
    if measure not in MEASURES:
        raise ValidationError(f"unknown measure {measure!r}, expected one of {MEASURES}")


def _voxel_index(value, n_voxels: int, name: str = "voxel") -> int:
    """``value`` as an integer voxel index below ``n_voxels``, or a ValidationError."""
    index = _integer(name, value)
    if not 0 <= index < n_voxels:
        raise ValidationError(f"{name} {index} out of range for {n_voxels} voxels")
    return index


def _as_spectrum(spectrum, n_channels: int) -> CrossSpectrum:
    """``spectrum`` as a :class:`CrossSpectrum` of ``n_channels`` channels.

    A bare array is wrapped (frequency NaN, one epoch), so it meets the same
    checks, with the same messages: finite, square, Hermitian, PSD and with
    a positive eigenvalue.
    """
    if not isinstance(spectrum, CrossSpectrum):
        spectrum = CrossSpectrum(matrix=spectrum, frequency=math.nan, n_epochs=1)
    if spectrum.dim != n_channels:
        raise DimensionError(
            f"spectrum has {spectrum.dim} channels, expected {n_channels}"
        )
    if spectrum.decomposition.rank == 0:
        raise SingularMatrixError("cross-spectrum has no positive eigenvalues")
    return spectrum


def _real_times_complex(real: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``real @ factor`` as one real product over ``factor``'s (re, im) columns.

    ``real @ factor`` would cast ``real`` to complex, a copy and a complex
    product with a zero imaginary part; the same sums in a real product
    give the same values without either.
    """
    pairs = np.ascontiguousarray(factor, dtype=np.complex128).view(np.float64)
    return (real @ pairs).view(np.complex128)


# ---------------------------------------------------------------------------
# classical route


def classical_field(inverse, spectrum) -> ClassicalField:
    """The classical field of inverse ``T``: ``T`` and ``R = Gamma+ Lambda+^(1/2)``.

    The implied covariance is ``S_J = T S T' = A A*`` with ``A = T R``;
    neither is stored. Entry (k, l) is ``row_k(T R) . conj(row_l(T R))``.
    ``T`` must be finite. An InverseOperator's matrix is kept as it is; an
    array is copied once, so a later write to it moves no map.
    """
    if not isinstance(inverse, InverseOperator):
        inverse = InverseOperator(matrix=inverse)
    spectrum = _as_spectrum(spectrum, inverse.matrix.shape[1])
    return ClassicalField(inverse=inverse, root=spectrum.decomposition.range_factor(0.5))


# ---------------------------------------------------------------------------
# partial route


def partial_field(leadfield, spectrum) -> ConnectivityFactor:
    """Unit-row square root ``W`` of the whole-cortex partial coherence field.

    The gain matrix is pulled back through the whitener
    ``Gamma+ Lambda+^(-1/2)`` of the sensor cross-spectrum and each voxel
    row is normalized to unit length, giving the thin factor
    (voxels x effective rank). Eigenvalues that ``RANK_TOL`` zeroed are
    left out, so a rank-deficient spectrum (fewer epochs than channels,
    for instance) takes the pseudo-inverse branch automatically.
    ``W W*`` equals the field ``E K' U U K E`` of the full inverse square
    root ``U``: the two factors differ by the rotation ``Gamma+*``.

    No explicit inverse operator participates: the result is a function of
    the gain matrix and the cross-spectrum only. A NaN gain is refused; an
    array gain is copied and hashed, a LeadField's is read as it is and
    hashed once per lead field. The row norms are reduced over row blocks
    of ``K' Gamma+ Lambda+^(-1/2)``, so the factor is never stored: the
    result holds the gain, the whitener and the norms, its seed rows read
    those, and ``W`` is formed anew on each access (read it once).
    """
    gain = _full_rank_gain(leadfield)
    spectrum = _as_spectrum(spectrum, gain.shape[0])
    whitener = spectrum.decomposition.range_factor(-0.5)
    row_norms = _by_row_blocks(
        gain.T, lambda block: np.linalg.norm(_real_times_complex(block, whitener), axis=1)
    )
    largest = float(np.max(row_norms))
    dead = row_norms <= ZERO_ROW_RTOL * largest
    if np.any(dead):
        first = int(np.flatnonzero(dead)[0])
        raise ValidationError(
            f"voxel {first} is invisible to all electrodes under this "
            "cross-spectrum (zero factor row)"
        )
    if isinstance(leadfield, LeadField):
        fingerprint = leadfield.fingerprint()
    else:
        fingerprint = gain_fingerprint(gain)
    return ConnectivityFactor(
        W=_Whitened(gain, whitener, row_norms),
        method="partial",
        band=spectrum.band or (spectrum.frequency, spectrum.frequency),
        fingerprint=fingerprint,
        effective_rank=spectrum.decomposition.rank,
    )


def pairwise_partial(leadfield, spectrum, k: int, l: int) -> complex:
    """Partial coherence of one voxel pair from its two gain columns alone.

    Evaluates ``g_k' S+ g_l / sqrt((g_k' S+ g_k)(g_l' S+ g_l))`` where
    ``S+`` is the (pseudo-)inverse of the sensor cross-spectrum. No other
    voxel enters, so the value is independent of the rest of the grid.
    ``k`` and ``l`` must be integer voxel ids.
    """
    gain = _full_rank_gain(leadfield)
    k, l = (_voxel_index(voxel, gain.shape[1]) for voxel in (k, l))
    if k == l:
        return 1.0 + 0.0j
    # the two voxels' rows of the unnormalized partial factor
    whitener = _as_spectrum(spectrum, gain.shape[0]).decomposition.range_factor(-0.5)
    row_k, row_l = gain[:, [k, l]].T @ whitener
    quad_kk = float(np.real(np.vdot(row_k, row_k)))
    quad_ll = float(np.real(np.vdot(row_l, row_l)))
    if quad_kk <= 0.0 or quad_ll <= 0.0:
        raise SingularMatrixError(
            f"zero denominator: voxel {k if quad_kk <= 0 else l} has no "
            "support in the cross-spectrum range"
        )
    cross = complex(np.vdot(row_l, row_k))
    return cross / math.sqrt(quad_kk * quad_ll)


def lagged_measure(r):
    """Lagged component ``sqrt(Im(r)^2 / (1 - Re(r)^2))`` of a coherence.

    Accepts a scalar or an array. Purely real coherence gives 0 (no lag);
    where ``Re(r)^2`` reaches 1 the denominator collapses and the value is
    reported as 0 with a RuntimeWarning, since instantaneous coupling
    saturates the measure. Results are clipped to [0, 1]. A magnitude that
    is not finite or exceeds 1 is a ValidationError. The steps write into
    two buffers of the input's shape, never into the caller's array, and
    give the values of the plain expressions bit for bit.
    """
    array = np.asarray(r, dtype=np.complex128)
    magnitude = np.abs(array, out=np.empty(array.shape))
    if not np.all(magnitude <= 1.0 + MAGNITUDE_TOL):
        raise ValidationError(
            "coherence magnitudes must be finite and at most 1 "
            f"(largest {float(np.max(magnitude)):.6g})"
        )
    real_sq = np.square(array.real, out=magnitude)
    degenerate = real_sq >= 1.0 - DEGENERATE_TOL
    if np.any(degenerate):
        warnings.warn(
            "instantaneous coherence saturates the lagged measure; reporting 0",
            RuntimeWarning,
            stacklevel=2,
        )
    denominator = np.subtract(1.0, real_sq, out=real_sq)
    np.copyto(denominator, 1.0, where=degenerate)
    out = np.square(array.imag, out=np.empty(array.shape))
    np.divide(out, denominator, out=out)
    np.sqrt(out, out=out)
    np.minimum(out, 1.0, out=out)
    np.copyto(out, 0.0, where=degenerate)
    if np.ndim(r) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# seeded maps


def seeded_map(source, seed: int, measure: str) -> SeededMap:
    """Whole-grid connectivity of one seed voxel under the given measure.

    Computes a single row of the implied field, never the full matrix: the
    seed's normalized column of ``K' S+ K`` for a partial factor, or of
    ``T S T'`` for a classical field. It is read from the real operand
    (``K`` or ``T'``) as ``q = M (M* R[:, seed])`` followed by the real
    product ``[Re q; Im q] @ R``, where ``M`` is ``Gamma+ Lambda+^(-1/2)``
    or ``Gamma+ Lambda+^(1/2)``; that equals ``W @ conj(W[seed])`` (or
    ``A @ conj(A[seed])`` over ``sqrt(diag * diag[seed])``) to rounding, and
    moves half the bytes. The product is taken one block of 1024 voxels
    at a time, which on the shapes tested gives the bits of one product
    over all of ``R`` (another BLAS build may differ in the last bits). A
    partial factor loaded from disk or built directly has no operand, and
    reads the row from ``W``. The seed must be an integer voxel index
    below the voxel count (else a ValidationError names it). Coherence
    tags report magnitudes (seed entry exactly 1); lagged tags zero the
    row's seed entry before :func:`lagged_measure`, which maps it to
    exactly 0 (no self-lag).
    """
    _check_measure(measure)
    expected = ConnectivityFactor if measure.startswith("partial") else ClassicalField
    if not isinstance(source, expected):
        raise ValidationError(
            f"measure {measure!r} requires a {expected.__name__}, got "
            f"{type(source).__name__}"
        )
    seed = _voxel_index(seed, source.n_voxels, "seed")
    if expected is ClassicalField and source.dead_voxels.size:
        dead = source.dead_voxels
        raise ValidationError(
            f"{dead.size} voxel(s) have zero source variance "
            f"(first: {int(dead[0])}); classical coherence is undefined"
        )
    row = source._rows(seed)
    if measure.endswith("_coh"):
        values = np.abs(row)
        values[seed] = 1.0
    else:
        row[seed] = 0.0  # self-coherence is 1; no self-lag
        values = lagged_measure(row)
    return SeededMap(seed=seed, values=values, measure=measure)


def max_over_seeds(maps) -> SeededMap:
    """Per-voxel maximum across seeded maps, own-seed entries excluded.

    A running maximum from zeros: each map raises the composite everywhere
    but at its own seed, so the trivial self-connection (1 for coherence
    tags) cannot dominate. Memory is O(voxels) whatever the number of
    maps. A voxel with no contributors at all comes out as 0. The result
    carries ``seed = None``.
    """
    maps = list(maps)
    if not maps:
        raise ValidationError("need at least one seeded map")
    measure = maps[0].measure
    composite = np.zeros(maps[0].n_voxels)
    for entry in maps:
        if entry.measure != measure:
            raise ValidationError(
                f"mixed measure tags: {entry.measure!r} vs {measure!r}"
            )
        if entry.n_voxels != composite.size:
            raise DimensionError("maps cover different grids")
        if entry.seed is None:
            raise ValidationError("composites cannot be composed again")
        kept = composite[entry.seed]
        np.maximum(composite, entry.values, out=composite)
        composite[entry.seed] = kept
    return SeededMap(seed=None, values=composite, measure=measure)


def connectivity_maps(leadfield, spectrum, measure: str, seeds):
    """One measure's seeded maps and their composite, from ``K`` and ``S``.

    A ``partial_*`` measure reads :func:`partial_field`, a ``classical_*``
    measure the :func:`classical_field` of the minimum-norm inverse. Each
    distinct integer seed (``2.0`` is refused) gets one :func:`seeded_map`,
    in first-seen order; :func:`max_over_seeds` composes them. Returns
    ``(source, maps, composite)``.
    """
    _check_measure(measure)
    distinct = dict.fromkeys(_integer("seed", seed) for seed in seeds)
    if measure.startswith("partial"):
        source = partial_field(leadfield, spectrum)
    else:
        source = classical_field(min_norm_inverse(leadfield), spectrum)
    maps = tuple(seeded_map(source, seed, measure) for seed in distinct)
    return source, maps, max_over_seeds(maps)


# ---------------------------------------------------------------------------
# structural checks


def reflexive_residuals(leadfield, spectrum, inverse) -> ReflexiveCheck:
    """Verify that ``G = K' S+ K`` is a reflexive g-inverse of ``T S T'``.

    Everything stays in factored form: with ``S_J = B B*`` and ``G = C C*``
    the two defining residuals reduce to small-matrix expressions through
    the thin QR factors of ``B`` and ``C``, so no voxel-by-voxel matrix is
    formed at any grid size. ``K`` and ``T`` must be finite.
    """
    gain = _full_rank_gain(leadfield)
    matrix = _inverse_matrix(inverse, gain)
    decomposition = _as_spectrum(spectrum, gain.shape[0]).decomposition
    covariance_factor = matrix @ decomposition.range_factor(0.5)  # S_J = B B*
    ginverse_factor = gain.T @ decomposition.range_factor(-0.5)  # G = C C*
    r_cov = np.linalg.qr(covariance_factor, mode="r")
    r_gin = np.linalg.qr(ginverse_factor, mode="r")
    mixed = covariance_factor.conj().T @ ginverse_factor
    ginverse_residual = _relative_residual(
        r_cov @ (mixed @ mixed.conj().T - np.eye(mixed.shape[0])) @ r_cov.conj().T,
        r_cov @ r_cov.conj().T,
    )
    reflexive_residual = _relative_residual(
        r_gin @ (mixed.conj().T @ mixed - np.eye(mixed.shape[1])) @ r_gin.conj().T,
        r_gin @ r_gin.conj().T,
    )
    return ReflexiveCheck(ginverse_residual, reflexive_residual)


def resolution_check(leadfield, source_covariance) -> ReflexiveCheck:
    """Check the estimator against the resolution-filtered truth.

    For a positive definite true source covariance ``S_J``, the sensor
    covariance it generates is ``K S_J K'``, and the estimator's
    ``G = K' (K S_J K')^(-1) K`` must be a reflexive g-inverse of the
    filtered covariance ``M = H S_J H`` seen through the resolution
    projector ``H``. Both covariances must have full rank under
    ``RANK_TOL``, and ``K`` must be finite. Dense diagnostic, restricted to
    small grids.
    """
    gain = _full_rank_gain(leadfield)
    n_voxels = gain.shape[1]
    if n_voxels > 500:
        raise DimensionError(
            f"resolution_check is a dense diagnostic ({n_voxels} voxels > 500)"
        )
    truth = as_hermitian(source_covariance)
    if truth.dim != n_voxels:
        raise DimensionError("source covariance does not match the voxel count")
    if psd_eig(truth, context="true source covariance").rank < n_voxels:
        raise ValidationError("true source covariance must be positive definite")
    sensor = gain @ truth.values @ gain.T
    if psd_eig(sensor, context="implied sensor covariance").rank < gain.shape[0]:
        raise SingularMatrixError("implied sensor covariance is singular")
    ginverse = gain.T @ np.linalg.solve(sensor, gain)
    projector = resolution_matrix(gain)
    return is_reflexive_ginverse(projector @ truth.values @ projector, ginverse)


# ---------------------------------------------------------------------------
# persistence


def save_factor(path, factor: ConnectivityFactor) -> None:
    """Write a CSV manifest, then the factor matrix (complex PCF1), all or nothing."""
    manifest = {
        "method": factor.method,
        "band_lo": repr(factor.band[0]),
        "band_hi": repr(factor.band[1]),
        "fingerprint": factor.fingerprint,
        "effective_rank": factor.effective_rank,
    }
    write_all([
        (write_manifest, sidecar(path, "manifest"), manifest),
        (write_pcf1, path, factor.W),
    ])


def load_factor(path) -> ConnectivityFactor:
    """Read a factor that :func:`save_factor` wrote: the matrix, then its manifest.

    The factor holds the matrix it read as its ``W`` (frozen in place, not
    copied) and checks it as any given ``W`` is checked: 2-d, as many
    columns as the manifest's ``effective_rank``, and rows of unit norm.
    Its seed rows are read from ``W``.
    """
    matrix = read_pcf1(path)
    # A factor built from a bare matrix has no band and stores NaN, which
    # np.float64 parses and the finite-only float columns would refuse.
    entries = read_manifest(
        sidecar(path, "manifest"),
        {
            "method": str,
            "band_lo": np.float64,
            "band_hi": np.float64,
            "fingerprint": str,
            "effective_rank": int,
        },
    )
    return ConnectivityFactor(
        W=np.asarray(matrix, dtype=np.complex128),
        method=entries["method"],
        band=(entries["band_lo"], entries["band_hi"]),
        fingerprint=entries["fingerprint"],
        effective_rank=entries["effective_rank"],
        _fresh=True,
    )


_MAP_COLUMNS = {"voxel_id": int, "x": float, "y": float, "z": float, "value": float}


def write_map_csv(path, seeded: SeededMap, voxels: VoxelGrid) -> None:
    """Write a map as `voxel_id,x,y,z,value` rows in voxel order."""
    if len(voxels) != seeded.n_voxels:
        raise DimensionError(
            f"map covers {seeded.n_voxels} voxels, grid has {len(voxels)}"
        )
    rows = zip(voxels.row_text, seeded.values.tolist())
    write_lines(path, _MAP_COLUMNS, [[f"{row},{value!r}" for row, value in rows]])


def read_map_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a map CSV; returns (positions, values) in voxel-id order."""
    table = np.array(rows_by_id(path, read_table(path, _MAP_COLUMNS)[1]))
    return table[:, :3], table[:, 3]
