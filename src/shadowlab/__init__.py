"""shadowlab: shadows, shifts, diversity metrics and exhaustive verification
for bit-packed set families."""

from .families import (
    Family,
    InvariantViolation,
    complement_family,
    degree,
    elements_of,
    is_cross_t_intersecting,
    is_r_wise_t_intersecting,
    matching_number,
    max_degree,
    shadow,
    trace,
    word_of,
)
from .orders import Ordering, colex_segment, compare, level_words, lex_segment
from .shifting import (
    ShiftStep,
    ShiftTrace,
    compress_to_colex,
    cross_lex_shift_step,
    daykin_shift,
    find_colex_violation,
    is_shifted,
    shift_ij,
    shift_to_shifted,
)
from .binomials import (
    bound_value,
    gbinom,
    inv_gbinom,
    kk_bound,
    pad_cross_families,
    weighted_binomial_gap,
)
from .diversity import (
    DiversityValue,
    colex_diversity,
    diversity,
    influence,
    kk_diversity,
    s_diversity,
    total_influence,
)
from .constructions import build, kalai_circle, kalai_member
from .spaces import BudgetExceeded, InstanceSpace, iter_space
from .verifier import Report, reverify, verify, verify_cross_pair_space

__version__ = "0.1.0"
