"""posreal: nonnegative state-space realizations of rational transfer functions.

The pipeline expands a strictly proper transfer function into partial
fractions, normalizes the dominant pole to 1/(z - 1), shifts impulse values
off the front until the remaining coefficients fit inside the unit dominant
residue, assembles elementary nonnegative blocks, and lifts the collected
prefix back on.  Every output is re-verified against the input by an
independent Markov-parameter comparison.
"""

from .blocks import (
    Block,
    BudgetPlan,
    Realization,
    assemble,
    budget,
    complex_pair_block,
    dominant_remainder_block,
    pair_share_floor,
    positive_pole_block,
    prefix_lift,
    real_pole_block,
)
from .bounds import (
    BoundsReport,
    bounds_report,
    cone_order_bound,
    quadratic_order_bound,
)
from .check import VerificationReport, markov_check
from .errors import *  # noqa: F401,F403
from .geometry import (
    PairBucket,
    PoleClassification,
    classify,
)
from .realizer import (
    AlgorithmTrace,
    BlockSummary,
    IterationCapExceeded,
    NoPositiveRealization,
    Outcome,
    Realized,
    Unsupported,
    realize,
    realize_with_base,
)
from .tf import (
    PartialFraction,
    PoleTerm,
    Polynomial,
    TransferFunction,
    build_partial_fraction,
    expand,
    from_coefficients,
    impulse_response,
    normalize,
    recombine,
)

__version__ = "0.1.0"
