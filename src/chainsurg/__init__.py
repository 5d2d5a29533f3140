"""CSS code surgery via chain-complex quotients over GF(2).

Exact homology of length-2 complexes, subcode validation, quotient
merges and dual splits, induced logical maps, CNOT and code-switch plan
synthesis, and desk-scale state-vector verification.
"""

from .chaincomplex import (
    ChainComplex,
    ChainMap,
    HomologyBasis,
    cohomology,
    direct_sum,
    homology,
    induced_on_homology,
    validate,
    validate_chain_map,
)
from .csscode import (
    CssCode,
    Encoder,
    PauliOperator,
    certify_distance,
    distance_bruteforce,
    encoder_isometry,
    from_complex,
    from_parity_checks,
    symplectic_product,
)
from .errors import ChainsurgError
from .f2linalg import (
    Elimination,
    F2Matrix,
    Subspace,
    coset_reduce,
    image_basis,
    kernel_basis,
    left_inverse_block,
    quotient_basis,
    rref,
    solve,
)
from .protocols import (
    AncillaStrategy,
    SurgeryPlan,
    build_cnot_plan,
    code_switch_plan,
    decompose_merge_support,
    measurement_correction,
    plan_channel,
    propagate_pauli,
    singleton_check,
)
from .simverify import (
    StateVector,
    apply,
    counterexample_check,
    extract_logical_channel,
    physical_op_sequence,
)
from .surgery import (
    ExactSequenceReport,
    MergeResult,
    Subcode,
    analyze_merge,
    induced_logical_matrix,
    merge_decompose,
    quotient_merge,
    span_merge,
    split_from_merge,
    validate_subcode,
)

__version__ = "0.1.0"
