"""Shared helpers and the acceptance-summary terminal hook."""

import csv
import io

import numpy as np
from hypothesis import settings

from pcfield import VoxelGrid

# CI selects this with --hypothesis-profile=ci, so every run draws the same
# examples; local runs keep the default random search.
settings.register_profile("ci", derandomize=True)

# populated by tests/test_acceptance.py; printed after the run
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_criterion(number: int, description: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[number] = (description, bool(passed), detail)


def random_pd(rng: np.random.Generator, n: int, complex_entries: bool = True) -> np.ndarray:
    """Random Hermitian positive definite matrix, well conditioned."""
    cols = 2 * n
    factor = rng.standard_normal((n, cols))
    if complex_entries:
        factor = factor + 1j * rng.standard_normal((n, cols))
    return (factor @ factor.conj().T) / cols


def random_gain(rng: np.random.Generator, n_electrodes: int, n_voxels: int) -> np.ndarray:
    """Random gain matrix of full row rank, its leading square block shifted."""
    gain = rng.standard_normal((n_electrodes, n_voxels))
    gain[:, :n_electrodes] += 3.0 * np.eye(n_electrodes)
    return gain


def random_psd(
    rng: np.random.Generator, n: int, rank: int, complex_entries: bool = True
) -> np.ndarray:
    """Random Hermitian PSD matrix of the requested rank."""
    factor = rng.standard_normal((n, rank))
    if complex_entries:
        factor = factor + 1j * rng.standard_normal((n, rank))
    return factor @ factor.conj().T


#: Floats whose text is easy to get wrong: both zeros, exponent forms, the
#: smallest subnormal, a large integral value and an inexact sum.
AWKWARD_FLOATS = (0.0, -0.0, 1e-05, 5e-324, 1e16, 0.1 + 0.2)


def awkward_grid() -> VoxelGrid:
    """A voxel grid whose coordinates are the awkward floats, both signs."""
    values = AWKWARD_FLOATS + tuple(-v for v in AWKWARD_FLOATS)
    rows = [values[i : i + 3] for i in range(len(values) - 2)]
    return VoxelGrid(positions=np.array(rows), spacing=1.0)


def csv_writer_bytes(header, rows) -> bytes:
    """The UTF-8 bytes ``csv.writer`` writes for ``header`` then ``rows``."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue().encode("utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        description, passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        line = f"criterion {number}: {verdict} - {description}"
        if detail:
            line = f"{line} ({detail})"
        terminalreporter.write_line(line)
