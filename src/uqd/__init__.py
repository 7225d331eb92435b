"""Equivalence of jump unravellings of Markovian quantum master equations.

The package decides, for two Hamiltonian-plus-jump-operator representations,
whether they generate identical quantum trajectory ensembles (and equivalent
labelled or coarse-grained ensembles), constructs minimal and
gauge-transformed representations, and cross-validates the algebraic
verdicts with a piecewise-deterministic trajectory simulator.
"""

from .ensemble import (
    EnsembleComparison,
    MeanStateReport,
    RateFieldReport,
    compare_ensembles,
    mean_state_check,
    rate_field_scan,
)
from .equivalence import (
    BlockIsometry,
    EquivalenceReport,
    JumpMatching,
    Theorem1Verdict,
    Theorem2Verdict,
    apply_gauge,
    check_theorem1,
    check_theorem2,
    check_theorem3,
    evaluate,
    extract_isometry,
    same_liouvillian,
)
from .errors import InputError, NumericalError, ParseError, UqdError, ValidationError
from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    density,
    identity_shift,
    matrix_exponential,
    normalize,
    numerical_rank,
    proportionality_coefficient,
    random_pure_state,
    superoperator_matrix,
    trace_distance,
    unvec,
    vec,
)
from .models import qutrit_a, qutrit_a_minimal, qutrit_b
from .representation import (
    Representation,
    drift,
    effective_hamiltonian,
    from_document,
    jump_destination,
    jump_rate,
    jump_rates,
    liouvillian_matrix,
    parse,
    serialize,
    to_document,
)
from .sjed import (
    NonResetBlock,
    ResetBlock,
    SjedPartition,
    are_jed,
    composite_action,
    minimal_block_representation,
    minimize_representation,
    partition,
)
from .trajectory import (
    TrajectoryEnsemble,
    coarse_grain,
    simulate,
    simulate_ensemble,
    state_at,
)

__version__ = "0.1.0"
