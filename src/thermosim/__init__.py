"""thermosim: thermal-qubit purification, Bell-basis post-selection, and
interference simulation, plus eigenchecks of the squared-inverse-temperature
operator on factored purification amplitudes."""

from .qcore import (
    CNOT,
    EQ_TOL,
    FD_TOL,
    HADAMARD,
    PHI_MINUS,
    PHI_PLUS,
    PSI_MINUS,
    PSI_PLUS,
    SIGMA_Z,
    ConfigurationError,
    DensityMatrix,
    Operator,
    StateVector,
    apply,
    basis_state,
    fidelity_pure,
    partial_trace,
    tensor_product,
)
from .thermal import GibbsWeights, QuditHamiltonian, ThermalSpec, gibbs_weights, purify, thermal_density
from .protocol import (
    OUTCOME_ORDER,
    BellOutcome,
    PostSelectionResult,
    ProtocolConfig,
    bell_state,
    joint_state,
    post_select,
    post_select_oracle,
    sample_outcomes,
    success_probability,
)
from .interference import SweepSpec, circuit_probability, closed_form_probability, sweep
from .tempop import (
    EigenReport,
    FactoredBipartiteState,
    apply_inverse_temp_squared,
    eigencheck_purified,
    purified_thermal_state,
    residual_superposition,
    superposition_state,
)
from .cli import load_config

__version__ = "0.1.0"
