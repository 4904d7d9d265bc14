"""CSS codes as chain complexes over GF(2): construction, distance
balancing, and exact brute-force parameter verification."""

from .balance import (
    BalancedCode,
    BoundCheck,
    ClassicalParams,
    DependentChecksError,
    QuantumParams,
    SideCheck,
    UndefinedSoundnessError,
    bound_check,
    bound_x,
    bound_z,
    distance_balance,
    double_balance,
    measured_classical_params,
    measured_quantum_params,
    predicted_double_params,
    predicted_params,
)
from .chain import (
    ChainComplex,
    ClassicalCode,
    CssCode,
    as_classical,
    as_css,
    cocomplex,
    complex_from_json,
    complex_to_json,
    homological_product,
)
from .constructions import (
    CodeSpec,
    hamming74,
    param_table,
    q_complex,
    random_css,
    random_ldpc,
    rep_modified,
    rep_standard,
)
from .gf2 import (
    BitMatrix,
    block,
    parse_pcm,
    row_basis,
    write_pcm,
)
from .oracle import (
    DEFAULT_CAP,
    INFINITE,
    CapExceeded,
    CodeReport,
    analyze_classical,
    analyze_quantum,
    classical_dimension,
    classical_distance,
    classical_soundness,
    component_soundness,
    locality,
    quantum_dimension,
    quantum_distance_x,
    quantum_distance_z,
    quantum_distances,
    quantum_soundness,
)

__version__ = "0.1.0"
