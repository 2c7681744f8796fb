"""Epoched recordings and Hermitian cross-spectrum estimation.

The transform convention is the unnormalized forward DFT with kernel
``exp(-i 2 pi w t / N_T)`` over a rectangular window, which is exactly what
``numpy.fft`` computes; Parseval's identity in the tests pins the scaling.
No tapering, detrending, or epoch overlap: epochs are assumed stationary
and are combined by a plain average of their spectral outer products.

An estimate transforms only the bins it keeps when they are few (a direct
DFT as two real matrix products) and takes one ``rfft`` of every epoch when
they are many; either way the outer products are summed by BLAS calls, so
the same inputs, numpy/BLAS build and BLAS thread count give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from itertools import product

import numpy as np

from .errors import DimensionError, FormatError, ValidationError
from .forward import read_table, write_lines
from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    _frozen,
    _hermitian_part,
    as_hermitian,
    psd_eig,
)


@dataclass(frozen=True)
class EpochedRecording:
    """Multichannel epochs, indexed (epoch, sample, channel).

    ``labels`` is optional channel naming carried through CSV round-trips;
    it never affects the numerics. ``data`` is a read-only copy of the array
    given; ``simulate_eeg`` and :func:`read_epochs_csv` hand over the array
    they just made (``_fresh``), which is frozen in place, not copied.
    """

    data: np.ndarray  # (n_epochs, n_samples, n_channels)
    rate: float
    labels: tuple[str, ...] | None = None
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        data = _frozen(self.data, np.float64, _fresh)
        if data.ndim != 3:
            raise DimensionError(
                f"epoch data must be 3-d (epoch, sample, channel), got {data.ndim}-d"
            )
        n_epochs, n_samples, n_channels = data.shape
        if n_epochs < 1 or n_channels < 1:
            raise DimensionError("need at least one epoch and one channel")
        if n_samples < 2:
            raise DimensionError("need at least two samples per epoch")
        # one min and one max (NaN propagates): no bool copy of the epochs
        if not (math.isfinite(data.min()) and math.isfinite(data.max())):
            raise ValidationError("epoch data contains non-finite values")
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValidationError(f"sampling rate must be positive, got {self.rate}")
        if self.labels is not None:
            labels = tuple(self.labels)
            if len(labels) != n_channels:
                raise DimensionError(
                    f"{len(labels)} labels for {n_channels} channels"
                )
            if len(set(labels)) != len(labels):
                raise ValidationError("channel labels must be unique")
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rate", float(self.rate))

    @property
    def n_epochs(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    @property
    def n_channels(self) -> int:
        return self.data.shape[2]

    @property
    def bin_width(self) -> float:
        """Frequency resolution in Hz."""
        return self.rate / self.n_samples


@dataclass(frozen=True)
class CrossSpectrum:
    """Epoch-averaged Hermitian cross-spectral matrix at one frequency.

    ``band`` is set when the matrix is an average over several bins, in
    which case ``frequency`` is the mean of the included bin frequencies.
    ``decomposition`` is the PSD-checked, rank-truncated eigendecomposition,
    computed once at construction; every estimator whitens through it.
    """

    matrix: HermitianMatrix
    frequency: float
    n_epochs: int
    band: tuple[float, float] | None = None
    decomposition: EigenDecomposition = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", as_hermitian(self.matrix))
        if self.n_epochs < 1:
            raise ValidationError("n_epochs must be at least 1")
        object.__setattr__(
            self, "decomposition", psd_eig(self.matrix, context="cross-spectrum")
        )

    @property
    def values(self) -> np.ndarray:
        return self.matrix.values

    @property
    def dim(self) -> int:
        return self.matrix.dim


def dft_epoch(epoch: np.ndarray, bin: int) -> np.ndarray:
    """Unnormalized forward DFT of one epoch at a single frequency bin.

    ``epoch`` is (n_samples, n_channels); the result is one complex value
    per channel.
    """
    data = np.asarray(epoch, dtype=np.float64)
    if data.ndim != 2:
        raise DimensionError("epoch must be 2-d (sample, channel)")
    n_samples = data.shape[0]
    if not (0 <= bin < n_samples):
        raise ValidationError(f"bin {bin} out of range [0, {n_samples})")
    return np.fft.fft(data, axis=0)[bin]


def _mean_outer_product(rec: EpochedRecording, bins) -> np.ndarray:
    """Mean of ``x x*`` over epochs and ``bins`` (each at most n_samples / 2).

    The stacked DFT rows ``X`` (one per epoch and bin) give the mean
    ``X' conj(X) / rows``. Up to ``4 log2(n_samples)`` bins, where the direct
    transform measured faster than the FFT, ``X = R - iI`` comes from two
    real products ``R = cos(2 pi b t / n) @ data`` and ``I = sin(...) @ data``
    of the bins' twiddles alone, and the mean is
    ``(R'R + I'I + i(R'I - I'R)) / rows``: the recording is never cast to
    complex, and no other bin is transformed. Wider bands take one ``rfft``
    of every epoch and keep the band's bins.
    """
    n_samples, n_channels = rec.n_samples, rec.n_channels
    if len(bins) > 4 * np.log2(n_samples):
        rows = np.fft.rfft(rec.data, axis=1)[:, bins, :].reshape(-1, n_channels)
        return rows.T @ rows.conj() / rows.shape[0]
    # b * t reduced mod n keeps every angle in [0, 2 pi), so each twiddle
    # is as accurate as a table entry.
    steps = np.outer(bins, np.arange(n_samples)) % n_samples
    angles = (2 * np.pi / n_samples) * steps
    real = (np.cos(angles) @ rec.data).reshape(-1, n_channels)
    imag = (np.sin(angles) @ rec.data).reshape(-1, n_channels)
    cross = real.T @ imag
    mean = np.empty((n_channels, n_channels), dtype=np.complex128)
    mean.real = real.T @ real + imag.T @ imag
    mean.imag = cross - cross.T
    return mean / real.shape[0]


def cross_spectrum(rec: EpochedRecording, bin: int) -> CrossSpectrum:
    """Average over epochs of the DFT outer products at one bin.

    A bin above ``n_samples / 2`` is the conjugate of its mirror bin
    ``n_samples - bin``, as for any real signal.
    """
    if not (0 <= bin < rec.n_samples):
        raise ValidationError(f"bin {bin} out of range [0, {rec.n_samples})")
    folded = min(bin, rec.n_samples - bin)
    matrix = _mean_outer_product(rec, [folded])
    matrix = matrix if folded == bin else matrix.conj()
    return CrossSpectrum(
        matrix=_hermitian_part(matrix),
        frequency=bin * rec.bin_width,
        n_epochs=rec.n_epochs,
    )


def band_bins(n_samples: int, rate: float, f_lo: float, f_hi: float) -> list[int]:
    """DFT bins whose frequency lies in [f_lo, f_hi], both ends inclusive.

    DC and (for even lengths) Nyquist are always left out, since both are
    degenerate for real signals: the bins run 1 .. ``(n_samples - 1) // 2``.
    """
    if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo > f_hi:
        raise ValidationError(f"invalid band [{f_lo}, {f_hi}]")
    width = rate / n_samples
    highest = (n_samples - 1) // 2
    bins = [b for b in range(1, highest + 1) if f_lo <= b * width <= f_hi]
    if not bins:
        raise ValidationError(
            f"band [{f_lo}, {f_hi}] Hz contains no usable DFT bin at "
            f"resolution {width} Hz"
        )
    return bins


def band_cross_spectrum(
    rec: EpochedRecording, f_lo: float, f_hi: float
) -> CrossSpectrum:
    """Arithmetic mean of the per-bin cross-spectra across a frequency band.

    The mean of PSD matrices is PSD, so the result passes the same
    eigenvalue check as a single-bin estimate.
    """
    bins = band_bins(rec.n_samples, rec.rate, f_lo, f_hi)
    matrix = _mean_outer_product(rec, bins)
    frequencies = np.asarray(bins, dtype=np.float64) * rec.bin_width
    return CrossSpectrum(
        matrix=_hermitian_part(matrix),
        frequency=float(np.mean(frequencies)),
        n_epochs=rec.n_epochs,
        band=(float(f_lo), float(f_hi)),
    )


# ---------------------------------------------------------------------------
# epoch CSV

def write_epochs_csv(path, rec: EpochedRecording) -> None:
    """Write epochs as `epoch,t,<ch...>` rows, 1-based indices, full precision."""
    labels = rec.labels or tuple(f"ch{i + 1}" for i in range(rec.n_channels))
    # One epoch's lines at a time: the whole file as text would be several
    # times the size of the recording.
    chunks = (
        [
            f"{i},{t}," + ",".join(map(repr, sample))
            for t, sample in enumerate(epoch.tolist(), 1)
        ]
        for i, epoch in enumerate(rec.data, 1)
    )
    write_lines(path, ["epoch", "t", *labels], chunks)


def read_epochs_csv(path, rate: float) -> EpochedRecording:
    """Read `epoch,t,<ch...>` rows into an EpochedRecording.

    The rows must be exactly ``epoch = 1..m`` in order and, within each
    epoch, ``t = 1..n`` in order: a missing, repeated or out-of-order
    sample or epoch is a FormatError naming its line, because reading past
    a gap would shift every DFT bin.
    """
    header, rows = read_table(path, {"epoch": int, "t": int}, rest=float)
    keys = [(r[0], r[1]) for r in rows]
    n_epochs = len({epoch for epoch, _ in keys})
    n_samples = len(keys) // n_epochs
    expected = list(product(range(1, n_epochs + 1), range(1, n_samples + 1)))
    if keys != expected:
        bad = next(
            i for i, key in enumerate(keys) if i >= len(expected) or key != expected[i]
        )
        raise FormatError(
            f"{path}:{bad + 2}: (epoch, t) = {keys[bad]}; rows must run epoch "
            f"1..{n_epochs} and t 1..{n_samples} within each epoch, in order"
        )
    data = np.array([r[2:] for r in rows], dtype=np.float64)
    data = data.reshape(n_epochs, n_samples, len(header) - 2)
    return EpochedRecording(data=data, rate=rate, labels=tuple(header[2:]), _fresh=True)
