"""Dense Hermitian linear algebra primitives.

Everything here operates on small complex Hermitian matrices (sensor-space
covariances and cross-spectra, at most a few hundred rows). The routines are
pure functions of immutable inputs: eigendecomposition with rank detection,
whose range factor whitens a spectrum, the Moore-Penrose inverse, the
two-sided check that characterizes a reflexive generalized inverse, and the
textbook partial coherence of a full-rank covariance. The Moore-Penrose
inverse and the textbook partial coherence double as independent oracles
for the low-rank field estimator in :mod:`pcfield.confield`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NotPositiveSemidefiniteError,
    SingularMatrixError,
    ValidationError,
)

#: Rank-loss threshold: an eigenvalue (or a gain singular value) at or
#: below ``RANK_TOL`` times the largest magnitude counts as zero.
RANK_TOL = 1e-10

#: Relative Frobenius residual up to which ``A G A = A`` and ``G A G = G``
#: count as holding, so ``G`` is a verified reflexive generalized inverse.
REFLEXIVE_TOL = 1e-8

#: Conjugate-symmetry tolerance accepted at construction, relative to the
#: largest entry: ``max|S - S*| <= HERMITIAN_RTOL * max|S|``.
HERMITIAN_RTOL = 1e-12


def _frozen(array, dtype, fresh: bool = False, order: str = "K") -> np.ndarray:
    """``array`` as a read-only ``dtype`` array in memory ``order``.

    The one ownership rule of every value type that keeps an array: an
    array a caller passes is copied, so it stays writable and a later write
    to it moves nothing; one a builder has just made and no caller holds is
    handed over as ``fresh`` and frozen in place (copied only where
    ``dtype`` or ``order`` require it).
    """
    frozen = np.array(array, dtype=dtype, order=order, copy=None if fresh else True)
    frozen.setflags(write=False)
    return frozen


def _integer(name: str, value) -> int:
    """``value`` through ``operator.index``, or a ValidationError naming ``name``.

    A ``bool`` is refused, as numpy's ``operator.index`` refuses ``np.bool_``.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


class HermitianMatrix:
    """Complex square matrix with conjugate symmetry.

    Construction always checks ``max|S - S*| <= HERMITIAN_RTOL * max|S|``,
    a bound that scales with the data units, and then stores the exact
    symmetrization ``(S + S*) / 2``, so the stored diagonal is exactly real.
    ``entries`` is a square matrix, real or complex, and is only read. The
    stored array is read-only; :attr:`values` and ``np.asarray`` give it as
    it is, ``np.array(matrix)`` gives a writable copy.
    """

    __slots__ = ("_values",)

    def __init__(self, entries):
        values = np.asarray(entries)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise DimensionError(
                f"expected a square matrix, got shape {values.shape}"
            )
        if values.shape[0] == 0:
            raise DimensionError("empty matrix (dim 0)")
        values = values.astype(np.complex128, copy=False)
        if not np.all(np.isfinite(values)):
            raise ValidationError("matrix contains non-finite entries")
        asymmetry = float(np.max(np.abs(values - values.conj().T)))
        bound = HERMITIAN_RTOL * float(np.max(np.abs(values)))
        if not (asymmetry <= bound):
            raise ValidationError(
                f"matrix is not Hermitian: max|S - S*| = {asymmetry:.3e} "
                f"exceeds {bound:.3e}"
            )
        self._values = _frozen((values + values.conj().T) / 2.0, np.complex128, fresh=True)

    @property
    def dim(self) -> int:
        return self._values.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Read-only ``(dim, dim)`` complex128 view."""
        return self._values

    def __array__(self, dtype=None, copy=None):
        return np.array(self._values, dtype=dtype, copy=copy)

    def __repr__(self) -> str:
        return f"HermitianMatrix(dim={self.dim})"


def as_hermitian(matrix) -> HermitianMatrix:
    """Coerce an array or :class:`HermitianMatrix` into a validated instance."""
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


def _hermitian_part(matrix: np.ndarray) -> HermitianMatrix:
    """Exactly Hermitian ``(M + M*) / 2``, so the construction check passes."""
    return HermitianMatrix((matrix + matrix.conj().T) / 2.0)


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorization ``S = vectors @ diag(values) @ vectors*``.

    ``eigenvalues`` is real and nonincreasing; entries whose magnitude fell
    at or below the rank tolerance were forced to exactly zero, and ``rank``
    counts the survivors. ``eigenvectors`` has unit-norm columns. Both are
    kept as read-only copies, so no write moves a whitener built from them.

    Construction checks the shapes and what the factors promise: a finite
    nonempty n x n basis, n finite nonincreasing eigenvalues and an integer
    ``rank`` (not a ``bool``) equal to the count of nonzero eigenvalues.
    Orthonormality is not checked.
    """

    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    rank: int

    def __post_init__(self):
        vectors = _frozen(self.eigenvectors, np.complex128)
        values = _frozen(self.eigenvalues, np.float64)
        rank = _integer("rank", self.rank)
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1] or vectors.size == 0:
            raise DimensionError(
                f"eigenvectors must be a nonempty square matrix, got shape {vectors.shape}"
            )
        if values.shape != vectors.shape[:1]:
            raise DimensionError(
                f"{vectors.shape[0]} eigenvectors need {vectors.shape[0]} eigenvalues, "
                f"got shape {values.shape}"
            )
        if not np.all(np.isfinite(vectors)):
            raise ValidationError("eigenvectors contain non-finite entries")
        if not np.all(np.isfinite(values)):
            raise ValidationError("eigenvalues contain non-finite entries")
        if np.any(values[1:] > values[:-1]):
            raise ValidationError("eigenvalues must be nonincreasing")
        nonzero = int(np.count_nonzero(values))
        if rank != nonzero:
            raise ValidationError(f"rank {rank} does not count the {nonzero} nonzero eigenvalues")
        object.__setattr__(self, "eigenvectors", vectors)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "rank", rank)

    def reconstruct(self) -> np.ndarray:
        """Return ``vectors @ diag(values) @ vectors*``."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.conj().T

    def range_factor(self, power: float) -> np.ndarray:
        """``Gamma+ Lambda+^power`` over the positive eigenvalues (``rank``
        columns for a PSD matrix); ``range_factor(-1/2)`` whitens ``S``."""
        positive = self.eigenvalues > 0.0
        return self.eigenvectors[:, positive] * self.eigenvalues[positive] ** power


def hermitian_eig(matrix) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix with rank detection.

    Eigenvalues are returned in nonincreasing order; any eigenvalue with
    magnitude at or below ``RANK_TOL * max|eigenvalue|`` is reported as
    exactly zero (the package's one rank rule). For a PSD Hermitian matrix
    this coincides with its singular value decomposition.

    Raises
    ------
    ValidationError
        If the input is not Hermitian to within the construction tolerance.
    DimensionError
        If the input is empty or not square.
    """
    hermitian = as_hermitian(matrix)
    eigvals, eigvecs = np.linalg.eigh(hermitian.values)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]  # EigenDecomposition copies
    scale = float(np.max(np.abs(eigvals)))
    negligible = np.abs(eigvals) <= RANK_TOL * scale
    eigvals[negligible] = 0.0
    rank = int(np.count_nonzero(eigvals))
    return EigenDecomposition(eigenvectors=eigvecs, eigenvalues=eigvals, rank=rank)


def psd_eig(matrix, context: str) -> EigenDecomposition:
    """:func:`hermitian_eig` of a matrix required to be positive semidefinite.

    Raises
    ------
    NotPositiveSemidefiniteError
        If an eigenvalue is below ``-RANK_TOL * max|eigenvalue|``; smaller
        magnitudes were already set to exactly zero.
    """
    decomposition = hermitian_eig(matrix)
    smallest = float(decomposition.eigenvalues[-1])
    if smallest < 0.0:
        raise NotPositiveSemidefiniteError(
            f"{context}: eigenvalue {smallest:.6e} is negative beyond the "
            "rank tolerance"
        )
    return decomposition


def moore_penrose(matrix) -> HermitianMatrix:
    """Moore-Penrose inverse of a Hermitian PSD matrix.

    The result satisfies all four Moore-Penrose conditions: ``S G S = S``,
    ``G S G = G``, and both products ``S G`` and ``G S`` are Hermitian.

    Raises
    ------
    NotPositiveSemidefiniteError
        If an eigenvalue is below ``-RANK_TOL * max|eigenvalue|``.
    """
    decomposition = psd_eig(matrix, "moore_penrose")
    result = decomposition.range_factor(-1.0) @ decomposition.range_factor(0.0).conj().T
    return _hermitian_part(result)


@dataclass(frozen=True)
class ReflexiveCheck:
    """Outcome of the two-identity reflexive generalized-inverse test.

    ``ginverse_residual`` is ``|A G A - A|_F / |A|_F`` (the generalized
    inverse identity) and ``reflexive_residual`` is ``|G A G - G|_F / |G|_F``
    (the reflexivity identity). ``is_reflexive`` is true iff both are at
    most ``REFLEXIVE_TOL``.
    """

    ginverse_residual: float
    reflexive_residual: float

    @property
    def is_reflexive(self) -> bool:
        return (
            self.ginverse_residual <= REFLEXIVE_TOL
            and self.reflexive_residual <= REFLEXIVE_TOL
        )

    def __bool__(self) -> bool:
        return self.is_reflexive


def _relative_residual(deviation: np.ndarray, reference: np.ndarray) -> float:
    deviation_norm = float(np.linalg.norm(deviation))
    reference_norm = float(np.linalg.norm(reference))
    if reference_norm == 0.0:
        return 0.0 if deviation_norm == 0.0 else math.inf
    return deviation_norm / reference_norm


def is_reflexive_ginverse(candidate_a, candidate_g) -> ReflexiveCheck:
    """Test whether ``G`` is a reflexive generalized inverse of ``A``.

    Both ``A G A = A`` and ``G A G = G`` must hold to ``REFLEXIVE_TOL`` in
    the relative Frobenius norm; the two residuals are reported so a caller
    can see which identity failed. Note the first identity alone admits many
    non-reflexive inverses, so both are required.
    """
    a = np.asarray(candidate_a, dtype=np.complex128)
    g = np.asarray(candidate_g, dtype=np.complex128)
    if a.ndim != 2 or g.ndim != 2:
        raise DimensionError("inputs must be 2-d matrices")
    if a.shape[1] != g.shape[0] or g.shape[1] != a.shape[0]:
        raise DimensionError(
            f"non-conformable shapes {a.shape} and {g.shape}"
        )
    return ReflexiveCheck(
        _relative_residual(a @ g @ a - a, a), _relative_residual(g @ a @ g - g, g)
    )


def direct_partial_coherence(matrix) -> HermitianMatrix:
    """Partial coherence of a strictly positive definite covariance.

    Inverts the covariance with a dense LU solve and rescales the inverse by
    its diagonal: ``P = E Q E`` with ``Q = S^(-1)`` and
    ``E = diag(Q)^(-1/2)``. The diagonal of ``P`` is set to exactly one,
    which the normalization forces mathematically.

    This is the classical full-rank definition. It exists as the brute-force
    reference for the rank-deficient field estimator and fails loudly on
    singular input rather than falling back to a generalized inverse.

    Raises
    ------
    SingularMatrixError
        If the smallest eigenvalue is at or below ``RANK_TOL`` times the
        largest; rank-deficient covariances must go through the field
        estimator.
    """
    hermitian = as_hermitian(matrix)
    eigvals = np.linalg.eigvalsh(hermitian.values)
    largest = float(eigvals[-1])
    smallest = float(eigvals[0])
    if smallest <= RANK_TOL * max(abs(largest), abs(smallest)):
        raise SingularMatrixError(
            f"covariance is singular at rank tolerance {RANK_TOL:.1e} "
            f"(eigenvalue range [{smallest:.3e}, {largest:.3e}]); "
            "use the low-rank field estimator instead"
        )
    inverse = np.linalg.inv(hermitian.values)
    scaling = 1.0 / np.sqrt(np.real(np.diag(inverse)))
    partial = inverse * np.outer(scaling, scaling)
    np.fill_diagonal(partial, 1.0)
    return _hermitian_part(partial)
