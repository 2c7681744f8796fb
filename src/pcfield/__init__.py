"""Whole-cortex EEG connectivity via partial coherence fields.

The package estimates voxel-to-voxel coherence structure from scalp EEG
without committing to a particular inverse solution: the partial coherence
field is a function of the lead field and the sensor cross-spectrum alone,
held as a low-rank factor so the voxel dimension never appears squared.
A classical coherence route through explicit linear inverses is included
for comparison, along with a two-source simulation harness and a CLI.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    DimensionError,
    FormatError,
    NotPositiveSemidefiniteError,
    PcfieldError,
    SingularMatrixError,
    ValidationError,
)
from .matcore import (
    EigenDecomposition,
    HermitianMatrix,
    ReflexiveCheck,
    as_hermitian,
    direct_partial_coherence,
    hermitian_eig,
    is_reflexive_ginverse,
    moore_penrose,
)
from .forward import (
    ElectrodeArray,
    InverseOperator,
    LeadField,
    VoxelGrid,
    builtin_1020_electrodes,
    electrode_seed_voxels,
    gain_fingerprint,
    load_leadfield,
    min_nn_distance,
    min_norm_inverse,
    mp_symmetry_defect,
    read_electrodes_csv,
    read_pcf1,
    read_voxels_csv,
    resolution_matrix,
    save_leadfield,
    spherical_grid,
    synth_leadfield,
    voxel_under_electrode,
    weighted_inverse,
    write_electrodes_csv,
    write_pcf1,
    write_voxels_csv,
)
from .spectra import (
    CrossSpectrum,
    EpochedRecording,
    band_bins,
    band_cross_spectrum,
    cross_spectrum,
    dft_epoch,
    read_epochs_csv,
    write_epochs_csv,
)
from .confield import (
    ClassicalField,
    ConnectivityFactor,
    SeededMap,
    classical_field,
    connectivity_maps,
    lagged_measure,
    load_factor,
    max_over_seeds,
    pairwise_partial,
    partial_field,
    read_map_csv,
    reflexive_residuals,
    resolution_check,
    save_factor,
    seeded_map,
    write_map_csv,
)
from .simharness import (
    ExperimentReport,
    GroundTruth,
    SimulationConfig,
    gen_sources,
    localization_error,
    parse_config,
    rng_streams,
    run_experiment,
    simulate_eeg,
    write_config,
    write_report,
)

# Importing the submodules binds them here too; they are not exports.
__all__ = [
    name
    for name, value in sorted(globals().items())
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
