"""Simulator for three-photon states entangled in time and space.

Two state classes are modeled: a three-mode state with one photon per
mode, whose pair correlations survive the loss of one photon, and a
two-mode state with a degenerate photon pair, whose pair correlations
vanish entirely once one pair photon is lost. The package evaluates
their second- and third-order coincidence correlation functions in time
and transverse space, and verifies the loss behavior exactly on discrete
frequency-bin models.
"""

from .config import (
    ExperimentConfig,
    OutputSpec,
    config_to_dict,
    default_config,
    parse_config,
    serialize_config,
)
from .correlators import (
    CorrelationSurface,
    Grid1D,
    QuadratureSpec,
    fwhm,
    g2_ghz_spatial,
    g2_ghz_temporal,
    g2_w_spatial,
    g2_w_temporal,
    g3_ghz_spatial,
    g3_ghz_temporal,
    g3_w_conditional,
    g3_w_spatial,
    g3_w_temporal,
    normalize_to_peak,
    w_temporal_panels,
)
from .errors import (
    AmbiguousWidthError,
    ConfigurationError,
    DegenerateInputError,
    InvalidArgumentError,
    PropertyViolationError,
    SchemaError,
    TriphotonError,
    UsageError,
)
from .modes import (
    ModeGrid,
    TriphotonTensor,
    build_ghz_discrete,
    build_w_discrete,
)
from .qubits import (
    DensityMatrix,
    PureState,
    fidelity,
    make_ghz,
    make_w,
    negativity,
    partial_trace,
    partial_transpose,
)
from .spectra import (
    FilterShape,
    FilterSpec,
    PhaseMatchConfig,
    TransverseWindow,
    detuning_ghz,
    filter_eval,
    phi,
)

__version__ = "0.1.0"
