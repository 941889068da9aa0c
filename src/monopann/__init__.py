"""Parametrized hyperelastic potentials from constrained neural networks.

The package bundles the kinematic tensor algebra, the constrained
feed-forward potentials, incompressible constitutive evaluation, Sobolev
calibration on uniaxial data, and numerical material-stability analysis,
plus a CLI tying the pipeline together.
"""

from .calibration import (
    CalibrationRecord,
    Dataset,
    TrainConfig,
    calibrate,
    evaluate,
    generate_synthetic,
    load_dataset,
    load_datasets,
    mse_loss,
    save_dataset,
    split_by_parameter,
    split_by_stretch,
)
from .constitutive import (
    MaterialLaw,
    MooneyRivlin,
    NeuralLaw,
    as_law,
    neo_hookean,
    pk1_stress,
    pk1_tangent,
    traction_free_gamma,
    uniaxial_stress,
)
from .kinematics import (
    invariant_derivatives,
    isochoric_invariants,
    tensor_cross,
)
from .networks import (
    Architecture,
    PotentialModel,
    build_model,
    load_model,
    save_model,
    sparsity,
)
from .stability import (
    StabilityReport,
    acoustic_tensor,
    baker_ericksen_check,
    ellipticity_compressible,
    ellipticity_incompressible,
    fibonacci_directions,
    hessian_decomposition,
    scan_invariant_plane,
)

__version__ = "0.1.0"
